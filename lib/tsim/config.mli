(** Static configuration of a simulated machine.

    The simulator implements the x86-TSO abstract machine of Sewell et al.
    extended with a global clock, as defined in Section 2 of the paper.
    One simulated tick nominally corresponds to 10 ns of wall-clock time on
    the paper's Westmere-EX test system (see {!ticks_per_us}); all latency
    constants below are expressed in ticks. *)

type consistency =
  | Sc  (** Sequential consistency: stores bypass the store buffer. *)
  | Tso  (** Plain x86-TSO: unbounded store-buffer residency. *)
  | Tbtso of int
      (** [Tbtso delta]: TBTSO[Δ] — a store enqueued at time [t] is
          guaranteed committed to memory by [t + delta]. *)
  | Tso_spatial of int
      (** [Tso_spatial s]: the TSO[S] model of Morrison & Afek
          (ASPLOS 2014), the paper's Section 8 comparison point — the
          store buffer holds at most [s] entries, so issuing [s] further
          stores flushes an old one, but a store can stay buffered
          {e forever} if its thread goes quiet. Spatial, not temporal. *)
  | Tbtso_hw of { tau : int; quiesce : int }
      (** The Section 6.1 hardware design, {e operationally}: when a
          store has been buffered longer than [tau] ticks, the machine
          forces system-wide quiescence — all threads pause for
          [quiesce] ticks while every buffered store drains. No drain is
          ever forced axiomatically; the TBTSO bound
          Δ = [tau] + [quiesce] + 1 {e emerges} from the bail-out
          mechanism (see {!Machine.quiescence_events}). *)

type drain_dist =
  | Drain_fixed of int  (** Every store becomes drainable after [n] ticks. *)
  | Drain_uniform of int * int  (** Uniform in [\[lo, hi\]]. *)
  | Drain_geometric of { p : float; cap : int }
      (** Geometric with success probability [p], truncated at [cap].
          Models the empirical "most stores propagate quickly, rare long
          tail" behaviour of Section 6.1.2. *)
  | Drain_adversarial
      (** Stores drain only when forced (fence, atomic op, Δ deadline,
          interrupt). Under {!Tso} this models unbounded starvation. *)

type costs = {
  load : int;  (** L1-hit load latency. *)
  store : int;  (** Store-buffer enqueue latency. *)
  cas : int;  (** Atomic RMW latency (implies store-buffer drain first). *)
  fence : int;  (** Serialization cost of a fence beyond draining. *)
  clock_read : int;  (** RDTSC-style global-clock read. *)
  cache_miss : int;  (** Extra latency for a load whose line was
                         invalidated by another thread's committed store. *)
  interrupt : int;  (** Thread-busy cost of servicing a timer interrupt. *)
}

type t = {
  consistency : consistency;
  costs : costs;
  drain : drain_dist;
  mem_words : int;
      (** Size of the simulated address space in words. {!Memory} backs
          it a page at a time, on the first write to each page, so an
          oversized value costs no host memory. *)
  cache_bits : int;  (** log2 of per-thread direct-mapped cache entries. *)
  detect_uaf : bool;  (** Raise on access to freed heap words. *)
  interrupt_period : int option;
      (** When [Some p], every thread receives a timer interrupt every [p]
          ticks: its store buffer drains completely and the OS hook runs
          (Section 6.2's x86 adaptation). *)
  jitter : float;
      (** Probability that a runnable thread is skipped in a given tick.
          0 gives a fair round-robin schedule; higher values diversify
          interleavings for stress testing. *)
  seed : int64;  (** Root seed for all stochastic machine choices. *)
}

val ticks_per_us : int
(** Simulated ticks per microsecond (100, i.e. 1 tick = 10 ns). *)

val us : int -> int
(** [us n] is [n] microseconds in ticks. *)

val ms : int -> int
(** [ms n] is [n] milliseconds in ticks. *)

val default_costs : costs
(** Calibrated to commodity x86 at the 10 ns tick scale: L1 load 1
    (10 ns), store issue 1, locked RMW 4 (~40 ns), MFENCE 3 (~30 ns,
    plus buffer drain time), TSC read 2, cross-socket cache miss 30
    (~300 ns, Westmere-EX-like), timer-interrupt service 150 (~1.5 µs). *)

val haswell_costs : costs
(** Single-socket Haswell-like calibration (the paper's second test
    platform): cache miss ~80 ns, cheaper fences/atomics. Short-operation
    fence taxes loom larger here, reproducing the paper's in-text Haswell
    numbers (e.g. FFHP over HP by ~60% on short read-only operations). *)

val default : t
(** TBTSO[Δ = 0.5 ms-sim], default costs, geometric drains, 1 Mi-word
    memory, 12-bit caches, UAF detection on, no interrupts, seed 1. *)

val with_consistency : consistency -> t -> t
val with_seed : int64 -> t -> t
val with_drain : drain_dist -> t -> t
val with_jitter : float -> t -> t
