(** The axiomatic oracle's formula.

    {!encode} compiles a litmus program into clauses on a fresh
    {!Tbtso_sat.Solver}: order-encoded action times, in-formula
    [Loadeq] control flow, read-from choices and the final-value
    observables, with the mode timing axioms behind activation literals
    created on first use. The encoding and its operational-equivalence
    argument are documented in {!Axiomatic}, which owns the queries;
    this module depends on nothing of {!Litmus} beyond the instruction
    AST. Variable numbering and clause order are fixed by the program
    alone, so two encodes of one program give the same search. *)

(** The literals outcomes are read off and blocking clauses are built
    over. Each group is exactly-one over its values. *)
type obs =
  | Ob_val of int * int * (int * Tbtso_sat.Solver.lit) list
      (** Thread, register, and one literal per value. *)
  | Ob_mem of int * (int * Tbtso_sat.Solver.lit) list
      (** Address, and one literal per final value. *)

type t = {
  s : Tbtso_sat.Solver.t;  (** The solver holding the formula. *)
  n : int;  (** Threads. *)
  addrs : int;
  regs : int;  (** The outcome arrays' sizes, as passed to {!encode}. *)
  h : int;
      (** The horizon: Σ (instructions + stores) + Σ wait durations
          time slots. *)
  combos : int;  (** Loadeq path combinations the formula covers. *)
  observables : obs list;
  sites : (int * int) list;
      (** Fence sites: [(thread, position)] of every store with a
          program-order-later instruction. *)
  delta_act : int -> Tbtso_sat.Solver.lit;
      (** The TBTSO[Δ] grid literal: commit ≤ issue + Δ for every
          executed store, chained to the nearest existing grid points. *)
  cap_act : int -> Tbtso_sat.Solver.lit;
      (** The TSO[S] capacity literal: at most S stores buffered. *)
  fence_act : int * int -> Tbtso_sat.Solver.lit;
      (** A fence site's selector: the store commits before the next
          instruction of its thread issues.
          @raise Invalid_argument if the pair is not in [sites]. *)
}
(** The three selectors add their clauses on the first call for a given
    argument and return the same literal on every later one; a query
    assumes the literals of its mode and fences. *)

val encode : addrs:int -> regs:int -> Litmus.instr list list -> t
(** The program's formula. The program must pass {!Litmus.validate}. *)
