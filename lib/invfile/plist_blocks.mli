(** Block-partitioned compressed postings payloads (the ['C'] format).

    A postings list is cut into fixed-size blocks; a directory records
    each block's node-id span [min, max], posting count, representation
    and byte length, so readers can {e skip} whole blocks by id — the
    primitive behind the skewed-intersection kernels of {!Plist_stream}.
    Per block, the representation is chosen at build time: delta-encoded
    varint (identical bytes to a ['V'] slice) for sparse blocks, a bitmap
    over [min, max] plus out-of-band posting fields for dense ones.

    The payload body produced here carries no format tag; {!Plist} owns
    the leading ['C'] byte and passes [pos = 1] when parsing. *)

val block_size : int
(** Postings per block (the last block of a list may hold fewer). *)

val dense : range:int -> count:int -> bool
(** The representation heuristic: a block whose id span [range] is within
    4x its posting [count] is stored as a bitmap (the bitmap then costs at
    most half a byte per posting, cheaper than any gap varint). *)

val encode : Posting.t array -> string
(** Encode a sorted postings array as an (untagged) blocked body. *)

val append : string -> pos:int -> Posting.t array -> string
(** [append payload ~pos l] extends the blocked body starting at byte
    [pos] of [payload] with the postings [l], whose ids must ascend and
    exceed the list's last id. The result is the first [pos] bytes of
    [payload] followed by [encode (decode (directory payload ~pos) ++ l)],
    byte for byte, but only the last, partial block is decoded and
    re-encoded: earlier directory entries and block bodies are copied as
    they are, so damage inside them stays for a reader to detect.
    @raise Storage.Codec.Corrupt if the directory or the last block is
    malformed, an inner block holds other than {!block_size} postings
    (which {!encode} never writes), or bytes follow the last block.
    @raise Invalid_argument if [l] does not follow the list. *)

(** {1 Reading} *)

type t
(** A parsed directory over an encoded payload. Holds the per-block spans
    and body offsets; block bodies are only decoded on demand. *)

val directory : string -> pos:int -> t
(** Parse the directory of the blocked body starting at byte [pos] of the
    payload. Block and posting counts are checked against the payload's
    length before anything is allocated for them.
    @raise Storage.Codec.Corrupt on malformed input. *)

val total : t -> int
(** Total postings in the list. *)

val n_blocks : t -> int
val block_min : t -> int -> int
val block_max : t -> int -> int

val suffix_count : t -> int -> int
(** [suffix_count d i] is the number of postings in blocks [i ..]
    (defined for [0 <= i <= n_blocks d], with the last being [0]). *)

val decode_block : t -> int -> Posting.t array
(** Decode one block. Validates span, count and (for bitmap blocks)
    popcount. @raise Storage.Codec.Corrupt on mismatch. *)

val decode : t -> Posting.t array
(** Decode the full list (all blocks, concatenated). *)

val nodes : t -> int array
(** The node ids of the full list, ascending, without materializing a
    posting: the ids-only decode behind {!Plist.nodes_of_bytes}. Walks
    blocks with the same parser as {!decode_block}, so it raises
    {!Storage.Codec.Corrupt} on exactly the payloads {!decode} does and
    otherwise equals [Array.map (fun p -> p.node) (decode d)]. *)

val find_block : t -> start:int -> int -> int
(** [find_block d ~start id] is the first block index [>= start] whose
    max node id is [>= id], or [n_blocks d] — a binary search over the
    directory that never touches block bodies. *)
