(** The occurrence determination algorithm (Section 4.2.1, Algorithm 1).

    Given the ordered matching results [R = (R_1, ..., R_n)] of an
    expression's predicates — each [R_i] a set of occurrence-number pairs —
    the expression is matched iff a chain
    [(o1_1,o2_1), ..., (o1_n,o2_n)] exists with [o2_(i-1) = o1_i] for all
    [i], a constraint satisfaction problem solved by backtracking.

    Two representations are provided. The list-based functions take the
    candidate sets as [(int * int) list array] — convenient, and the form
    the paper writes. The packed {!arena} stores the same sets flat in a
    reusable [int array] of pairs packed by {!Predicate_index.pack}, so the
    engines' match loops run allocation-free in the steady state; the test
    suite pins both representations (and the faithful Algorithm 1
    transcriptions) to agree on random inputs. *)

val matches : (int * int) list array -> bool
(** Recursive DFS. [matches [||]] is [false] (an expression has at least
    one predicate); an empty [R_i] yields [false]. *)

val matches_faithful : (int * int) list array -> bool
(** Literal transcription of Algorithm 1. *)

val iter_chains : (int * int) list array -> ((int * int) array -> bool) -> bool
(** [iter_chains rs accept] enumerates complete chains lazily, calling
    [accept] on each; stops and returns [true] as soon as [accept] does,
    returns [false] if no chain is accepted. The chain array is reused
    between calls — copy it to retain it. Used by the selection-postponed
    attribute mode (re-running the occurrence determination per candidate
    chain, Section 5) and by the nested path matcher. *)

(** {1 Packed candidate arena} *)

type arena
(** Candidate sets stored flat: row [i] holds predicate [i]'s packed
    pairs contiguously. Create one per engine and reuse it across
    documents; after warm-up, filling and searching allocate nothing.
    Rows obey a stack discipline: {!start_row}[ a i] discards every row
    [> i], matching the trie descent that fills them. *)

val create_arena : unit -> arena
val clear : arena -> unit

val start_row : arena -> int -> unit
(** [start_row a i] begins (re)filling row [i], discarding rows [>= i].
    Rows must be started in order: [i <= rows a]. *)

val push : arena -> int -> unit
(** Append a packed pair to the row most recently started. *)

val push_chain : arena -> int array -> int -> unit
(** [push_chain a cells c] appends every packed pair of the cell chain
    starting at index [c] (negative for none) into the current row.
    [cells] is a {!Pf_core.Predicate_index.cells} store: cell [c] holds
    its packed pair at [cells.(2c)] and the next cell index at
    [cells.(2c+1)]; a negative index ends the chain.
    Allocation-free, unlike folding a closure over the chain. *)

val rows : arena -> int
val row_len : arena -> int -> int

val load : arena -> (int * int) list array -> unit
(** Fill the arena from list-based candidate sets (tests, convenience). *)

val matches_packed : ?steps:int ref -> arena -> bool
(** DFS over all rows; equivalent to {!matches} on the same sets. When
    [steps] is given, the number of search steps is added to it (the
    engines' backtracking counter). *)

val search_steps : arena -> int
(** Monotone DFS step counter, advanced by {!matches_to} and
    {!matches_packed}. Reading deltas of this counter is the
    allocation-free alternative to passing [~steps] (whose [Some]
    wrapper is allocated at every call site). *)

val matches_to : ?steps:int ref -> arena -> int -> bool
(** [matches_to a d] searches rows [0..d] only — the prefix form the trie
    organizations need when deeper rows hold a sibling subtree's data. *)

val matches_faithful_packed : arena -> bool
(** Algorithm 1 on the packed rows, using reusable cursor scratch instead
    of filtered lists; step-for-step equivalent to {!matches_faithful}. *)

val iter_chains_packed : arena -> (int array -> int -> bool) -> bool
(** [iter_chains_packed a accept] enumerates complete chains; [accept]
    receives a scratch array of packed pairs and the chain length (the
    array may be longer — only the first [n] entries are the chain). Same
    contract as {!iter_chains} otherwise. *)
