(** Simulated shared memory.

    A word-addressed space [\[0, words)] with per-line version counters
    used by the coherence cost model, per-line owner and reader records
    used by the RFO cost model, per-word poison flags used for
    use-after-free detection, and a bump allocator for global
    (never-freed) variables. Dynamic allocation with reclamation lives in
    {!Heap}, layered on top.

    {2 Paged backing}

    The space is a page table of fixed 4,096-word pages (a whole number
    of lines). A page is backed by host memory only when a mutator
    ({!write}, {!write_in}, {!set_reader}, {!poison}, {!unpoison})
    first changes one of its values. Until then its entry points at one
    shared, never-written zero page holding the fresh-memory values:
    word 0, line version 0, owner and reader -1, unpoisoned. Reads
    ({!read}, {!line_version}, {!is_poisoned}, {!page}) never back a
    page. Paging is invisible to results: every address, value, record
    and [Out_of_memory] point is what a flat array of [words] words
    would give, so an oversized [words] costs host memory only for the
    pages actually touched.

    {2 Out-of-range addresses}

    Every accessor checks its address: one outside [\[0, words)] raises
    [Invalid_argument], never reads or writes host memory, and never
    reports {!Use_after_free}. *)

(** {2 Pages and the page table}

    The machine looks a word's page up once per access, then tests its
    poison flag, reads the word and its line's version and records a
    reader in place. Index a page's words and poison flags by
    [addr land page_mask], and its per-line arrays by
    [(addr land page_mask) lsr line_shift]. *)

type page = private {
  data : int array;  (** The words. *)
  version : int array;  (** Per line: bumped by every write. *)
  owner : int array;  (** Per line: the last writer's tid, or -1. *)
  reader : int array;
      (** Per line: the last tid other than the owner to read it since
          the last write, or -1. Feeds the RFO cost model: a committed
          store to a line another core has read must first regain
          exclusive ownership. *)
  poisoned : Bytes.t;  (** Per word: ['\000'] when live. *)
}

(** The page table. Its fields are read-only outside this module: the
    machine tests [0 <= addr < words] and indexes
    [pages.(addr lsr page_shift)] itself, with no call, and reads
    [writes]. An address outside [\[0, words)] must go to {!page},
    which raises. [resident] and [bump] are this module's own
    bookkeeping: read them through {!resident_words} and
    {!globals_end}. *)
type t = private {
  words : int;  (** Size of the address space, backed or not. *)
  pages : page array;  (** Unbacked entries are the shared zero page. *)
  mutable resident : int;  (** Pages backed so far. *)
  mutable bump : int;  (** The global arena's allocation pointer. *)
  mutable writes : int;
      (** Writes so far, by {!write} or {!write_in}: unchanged means
          no word has changed. *)
}

exception Use_after_free of { addr : int; tid : int; at : int; write : bool }
(** Raised (when enabled) by {!Machine} on an access to a poisoned word;
    this is the safety oracle for the SMR experiments. *)

exception Out_of_memory of { requested : int; available : int }

val line_shift : int
(** log2 of words per cache line (3, i.e. 8-word / 64-byte lines). *)

val create : words:int -> t
(** [create ~words] is a fresh memory of [words] words, all unbacked.
    @raise Invalid_argument if [words] is negative. *)

val resident_words : t -> int
(** Words of the pages backed so far: a multiple of the page size, at
    most [words] rounded up to a whole page. *)

val read : t -> int -> int

val write : t -> tid:int -> at:int -> int -> int -> unit
(** [write t ~tid ~at addr v] commits [v] to [addr], recording writer
    [tid] at time [at] and bumping the line version (which invalidates
    other threads' cached copies in the cost model). *)

val line_of : int -> int

val line_version : t -> int -> int
(** Current version of the line containing the given address. *)

val is_poisoned : t -> int -> bool

(** {2 Reading and changing a page} *)

val page_shift : int
(** log2 of words per page (12). *)

val page_mask : int

val page : t -> int -> page
(** [page t addr] is the page holding [addr], for reading. It never
    backs a page, so it may be the shared zero page: change a page only
    through {!write_in} and {!set_reader}. *)

val write_in : t -> page -> tid:int -> int -> int -> int
(** [write_in t p ~tid addr v], with [p = page t addr], is
    [write t ~tid ~at addr v]; it returns the line's new version. *)

val set_reader : t -> page -> int -> int -> unit
(** [set_reader t p addr r], with [p = page t addr], records [r] (a tid,
    or -1 for none) as the reader of [addr]'s line. It backs no page
    when the record already holds [r]. *)

val poison : t -> int -> len:int -> unit
(** Mark [len] words starting at [addr] as freed. Reads/writes raise
    {!Use_after_free} until {!unpoison}ed. *)

val unpoison : t -> int -> len:int -> unit

val alloc_global : t -> int -> int
(** [alloc_global t n] reserves [n] words of never-freed memory, zeroed,
    line-aligned to avoid false sharing between unrelated globals.
    @raise Out_of_memory when the arena is exhausted. *)

val globals_end : t -> int
(** First word beyond the global arena; heap space starts here. *)
