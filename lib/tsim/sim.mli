(** Instruction set available to simulated threads.

    Thread bodies are plain OCaml functions; each call below performs an
    effect that suspends the thread until the machine schedules the
    corresponding abstract-machine action (Section 2 of the paper). Code
    written against this API reads like the paper's pseudo-code:

    {[
      let owner_lock () =
        Sim.store flag0 1;          (* no fence *)
        if Sim.load flag1 <> 0 then begin ... end
    ]}

    All functions must be called from inside a thread run by {!Machine};
    calling them elsewhere raises [Effect.Unhandled]. *)

(** One step of a {!probe}'s iteration. *)
type step =
  | Load of int * (int array -> bool) option
      (** [Load (a, exit_when)] loads [a] (forwarding as {!load}) into
          the next value slot. With [Some test], the probe exits when
          [test values] holds; a test reads only the slots this
          iteration has loaded so far. *)
  | Clock of int option
      (** Reads the clock (as {!clock}). With [Some deadline], the probe
          exits when the clock is past [deadline]. *)
  | Cas of { addr : int; expected : int; desired : int }
      (** A {!cas}, which first drains the thread's store buffer; the
          probe exits when it succeeds. A [Cas] may only be a probe's
          first step. *)
  | Store of int * (int array -> int)
      (** [Store (a, value)] stores [value values] to [a] exactly as
          {!store} does (under [Tso_spatial] a full buffer first
          drains its oldest entry). [value] reads only the slots this
          iteration has loaded so far. It never exits the probe, and a
          probe with a [Store] never parks (see {!Machine.run}). *)

(** The effects behind the functions below. Every instruction answers
    an [int], so the machine resumes any suspended thread the same way:
    [E_load], [E_faa] and [E_xchg] answer the old value, [E_clock] the
    clock, [E_cas] 1 on success and 0 on failure, [E_probe] the index of
    the step that exited, and the rest 0. Their operands are unboxed
    constructor arguments, not tuples, so performing one allocates only
    the effect and its continuation. The meta-operations [E_tid],
    [E_stopping] and [E_label] are answered at once, with no machine
    action. *)
type _ Effect.t +=
  | E_load : int -> int Effect.t  (** address *)
  | E_store : int * int -> int Effect.t  (** address, value *)
  | E_cas : int * int * int -> int Effect.t  (** address, expected, desired *)
  | E_faa : int * int -> int Effect.t  (** address, addend *)
  | E_xchg : int * int -> int Effect.t  (** address, value *)
  | E_fence : int Effect.t
  | E_clock : int Effect.t
  | E_work : int -> int Effect.t  (** ticks, positive *)
  | E_stall_until : int -> int Effect.t
      (** a tick, or minus a number of ticks from now *)
  | E_tid : int Effect.t
  | E_stopping : bool Effect.t
  | E_label : string -> unit Effect.t
  | E_probe : step array * int array * int -> int Effect.t
      (** steps, value slots, backoff *)

exception Killed
(** Used by the machine to unwind threads abandoned at the end of a
    bounded run. Thread code must not catch it. *)

val load : int -> int
(** TSO load: forwarded from the thread's own store buffer when a
    buffered store to the address exists, otherwise read from memory. *)

val store : int -> int -> unit
(** TSO store: enqueue into the thread's store buffer. *)

val cas : int -> expected:int -> desired:int -> bool
(** Atomic compare-and-swap. Like all x86 locked operations it first
    drains the thread's store buffer, then reads-modifies-writes memory
    atomically. *)

val faa : int -> int -> int
(** Atomic fetch-and-add; returns the previous value. Drains the buffer. *)

val xchg : int -> int -> int
(** Atomic exchange; returns the previous value. Drains the buffer. *)

val fence : unit -> unit
(** Full memory fence (MFENCE): blocks until the store buffer is empty. *)

val clock : unit -> int
(** Read the global clock (invariant TSC analogue, Section 6). *)

val work : int -> unit
(** Consume [n] ticks of thread-local computation (models application
    work and bookkeeping that touches no shared memory). *)

val stall_until : int -> unit
(** Deschedule the thread until the given global time: models a context
    switch away or a long delay. Unlike real descheduling it does NOT
    drain the store buffer — pair with {!fence} to model a kernel entry. *)

val stall_for : int -> unit
(** [stall_for n] is [stall_until (clock-free now + n)]; costs no
    clock-read. *)

val tid : unit -> int
(** This thread's id (zero cost, meta-operation). *)

val stopping : unit -> bool
(** True once the driver has requested the run to wind down (zero cost,
    meta-operation — benchmark loops poll this). *)

val label : string -> unit
(** Emit a trace label (zero cost; no-op unless tracing is enabled). *)

val probe : step array -> int array -> backoff:int -> int
(** [probe steps values ~backoff] is the spin-wait

    {[
      let rec go () =
        (* each step in order, as described at {!step}; the i-th Load
           writes values.(i) and exits when its test holds *)
        ...;
        work backoff;
        go ()
    ]}

    run by the machine as one instruction: the thread is not resumed
    between steps, and every load, clock read, CAS, store, tick and
    statistic is the one the loop above would produce. Returns the
    index in [steps] of the step that exited. [values] needs one slot
    per [Load]; on return [values.(i)] is the i-th load's latest
    value. A [backoff <= 0] starts the next iteration at once, as
    [work 0] is a no-op. Tests and store values must be pure: each
    test is called once per executed load and each value once per
    executed store, and when nothing else in the machine can act
    before a later iteration could differ, the machine takes those
    iterations at once without calling them (see {!Machine.run}).

    The step rules: at most one [Cas], and only as the first step; at
    least one [Load] or [Cas]; a [Load] or [Cas] before any [Store];
    one value slot per [Load] ([Cas], [Clock] and [Store] take none).
    @raise Invalid_argument if [steps] breaks a step rule or has more
    loads than [values] has slots. *)

val await : ?deadline:int -> int -> until:(int -> bool) -> backoff:int -> int
(** [await ?deadline a ~until ~backoff] is the one-load {!probe}

    {[
      let rec go () =
        let v = load a in
        if until v then v
        else if (* only when ~deadline is given *) clock () > deadline then v
        else (work backoff; go ())
    ]}

    [[| Load (a, until); Clock deadline |]], the clock step only with
    [~deadline]. Returns the value that satisfied [until], or on the
    deadline exit the value that failed it: the caller re-tests
    [until] to tell the two exits apart. *)

val spin_while : (unit -> bool) -> unit
(** Re-evaluate the condition until it turns false. Each probe costs
    whatever shared accesses the condition performs. *)
