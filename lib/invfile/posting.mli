(** Inverted-file postings.

    For an atom [a], the inverted list [S_IF(a)] contains one posting per
    internal node [p] that has a leaf child labelled [a] (paper, Sec. 2).
    Beyond the paper's core payload — the sorted ids [C] of [p]'s internal
    children — postings carry the node's leaf count (needed by the
    set-equality and superset joins, Sec. 4.1) and its post-order rank
    (needed for the homeomorphic descendant test, Sec. 4.2), as the paper
    itself proposes. *)

type t = {
  node : int;  (** id of the internal node containing the leaf; [= pre rank] *)
  children : int array;  (** internal children of [node], strictly increasing *)
  leaf_count : int;  (** number of leaf children of [node] *)
  post : int;  (** post-order rank of [node] *)
  parent : int;  (** id of the parent internal node, [-1] at a record root —
                     supports ancestor-closure candidate generation for the
                     fully-homeomorphic semantics (paper, footnote 4) *)
}

val of_tree_node : Nested.Tree.node -> t

val compare : t -> t -> int
(** Orders by [node] id (unique within a list). *)

val is_descendant : anc:t -> desc:t -> bool
(** Pre/post interval test; false across records because id and post
    counters are global (see {!Nested.Tree}). *)

val encode : Storage.Codec.writer -> t -> prev_node:int -> unit
val decode : Storage.Codec.reader -> prev_node:int -> t

val encode_aux : Storage.Codec.writer -> t -> unit
(** Everything but the node id (leaf count, post rank, parent gap,
    children) — used when the node id is carried out of band, e.g. by a
    bitmap block (see {!Plist_blocks}). *)

val decode_aux : Storage.Codec.reader -> node:int -> t

val skip_aux : Storage.Codec.reader -> unit
(** Consumes the bytes {!decode_aux} would read, allocating nothing and
    raising {!Storage.Codec.Corrupt} exactly where it would — the step of
    an ids-only decode. *)

val pp : Format.formatter -> t -> unit
