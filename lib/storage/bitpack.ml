let block_size = 128

(* Layout: varint count, then per block: width byte (0..63), then
   ceil(width * items_in_block / 8) bytes of little-endian packed bits.
   A width of 0 encodes a block of zeros with no payload. *)

let bits_needed v =
  let rec go b = if v lsr b = 0 then b else go (b + 1) in
  go 0

let block_width a lo hi =
  let w = ref 0 in
  for i = lo to hi - 1 do
    w := max !w (bits_needed a.(i))
  done;
  !w

let max_width = 54 (* keeps shift accumulators within OCaml's 63-bit ints *)

let pack a =
  Array.iter
    (fun v ->
      if v < 0 then invalid_arg "Bitpack.pack: negative value";
      if bits_needed v > max_width then invalid_arg "Bitpack.pack: value too large")
    a;
  let buf = Codec.writer () in
  Codec.write_varint buf (Array.length a);
  let out = Buffer.create 64 in
  Buffer.add_string out (Codec.contents buf);
  let n = Array.length a in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + block_size) in
    let width = block_width a !lo hi in
    Buffer.add_char out (Char.chr width);
    if width > 0 then begin
      (* accumulate bits little-endian *)
      let acc = ref 0 and acc_bits = ref 0 in
      for i = !lo to hi - 1 do
        acc := !acc lor (a.(i) lsl !acc_bits);
        acc_bits := !acc_bits + width;
        while !acc_bits >= 8 do
          Buffer.add_char out (Char.chr (!acc land 0xff));
          acc := !acc lsr 8;
          acc_bits := !acc_bits - 8
        done;
      done;
      if !acc_bits > 0 then Buffer.add_char out (Char.chr (!acc land 0xff))
    end;
    lo := hi
  done;
  Buffer.contents out

exception Corrupt = Codec.Corrupt

let unpack s =
  let r = Codec.reader s in
  let n = Codec.read_varint r in
  (* every block of up to [block_size] values takes at least its width
     byte: a larger count is corrupt, and is refused before allocating *)
  if n < 0 || n > block_size * Codec.remaining r then
    raise (Corrupt "Bitpack.unpack: count exceeds payload");
  let a = Array.make (max n 1) 0 in
  let pos = ref 0 in
  (* switch to manual byte access after the varint header *)
  let byte_at =
    let header_len =
      (* re-measure the varint length *)
      let w = Codec.writer () in
      Codec.write_varint w n;
      String.length (Codec.contents w)
    in
    pos := header_len;
    fun i ->
      if i >= String.length s then raise (Corrupt "Bitpack.unpack: truncated");
      Char.code s.[i]
  in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + block_size) in
    let width = byte_at !pos in
    incr pos;
    if width > max_width then raise (Corrupt "Bitpack.unpack: bad width");
    if width = 0 then
      for i = !lo to hi - 1 do
        a.(i) <- 0
      done
    else begin
      let acc = ref 0 and acc_bits = ref 0 in
      for i = !lo to hi - 1 do
        while !acc_bits < width do
          acc := !acc lor (byte_at !pos lsl !acc_bits);
          incr pos;
          acc_bits := !acc_bits + 8
        done;
        a.(i) <- !acc land ((1 lsl width) - 1);
        acc := !acc lsr width;
        acc_bits := !acc_bits - width
      done
    end;
    lo := hi
  done;
  if n = 0 then [||] else a

let packed_size a =
  let header =
    let w = Codec.writer () in
    Codec.write_varint w (Array.length a);
    String.length (Codec.contents w)
  in
  let n = Array.length a in
  let total = ref header in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + block_size) in
    let width = block_width a !lo hi in
    total := !total + 1 + ((width * (hi - !lo) + 7) / 8);
    lo := hi
  done;
  !total
