(** Binary encoding of inverted-file payloads.

    Postings lists are stored as length-prefixed byte strings: unsigned
    LEB128 varints throughout, with sorted id sequences delta-encoded (gaps),
    as is conventional for inverted files. *)

(** {1 Writer} *)

type writer

val writer : unit -> writer
val contents : writer -> string
val write_varint : writer -> int -> unit
val write_int_list : writer -> int list -> unit
(** Length-prefixed, delta-encoded; the list must be strictly increasing. *)

val write_int_array : writer -> int array -> unit
(** As {!write_int_list}, for strictly increasing arrays. *)

val write_string : writer -> string -> unit
(** Length-prefixed raw bytes. *)

val write_raw : writer -> string -> unit
(** Raw bytes, no length prefix — for framing formats that carry their own
    lengths (e.g. the {!Plist_blocks} directory). *)

val write_sub : writer -> string -> pos:int -> len:int -> unit
(** [write_sub w s ~pos ~len] is [write_raw w (String.sub s pos len)]
    without the intermediate copy. *)

(** {1 Reader} *)

type reader

exception Corrupt of string

val reader : string -> reader
val reader_sub : string -> pos:int -> len:int -> reader
val at_end : reader -> bool

(** Current byte offset within the underlying string (absolute, i.e.
    relative to the string passed to {!reader} / {!reader_sub}). *)
val pos : reader -> int

val remaining : reader -> int
(** Bytes left before the reader's limit. *)

val read_varint : reader -> int

val read_count : reader -> int
(** A varint element count, checked against the bytes left (every
    element takes at least one): use it before allocating for a count
    read from untrusted bytes. @raise Corrupt if it exceeds them. *)

val read_int_list : reader -> int list
(** Inverse of {!write_int_list}. @raise Corrupt on truncated input or a
    count larger than the bytes left. *)

val read_int_array : reader -> int array
(** Inverse of {!write_int_array}; bounded as {!read_int_list}. *)

val skip_int_array : reader -> unit
(** Consumes what {!read_int_array} would, without allocating, raising
    exactly where it would. *)

val read_string : reader -> string

(** {1 Convenience} *)

val encode_int_array : int array -> string
val decode_int_array : string -> int array
