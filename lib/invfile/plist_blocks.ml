(* Block-partitioned postings payload ('C' format, see Plist.to_bytes).

   A list is cut into fixed-size blocks of [block_size] postings. A
   directory up front records, per block, the node-id span [min, max],
   the posting count, the representation and the body length, so readers
   can skip whole blocks by id without touching their bytes — the basis
   of the skewed-intersection kernels in Plist_stream.

   Body layout (the 'C' tag byte is owned by Plist and not part of it):

     varint  total            postings in the list
     varint  nblocks
     per block (directory):
       varint  min - prev_max - 1     (prev_max starts at -1)
       varint  max - min
       varint  count
       byte    repr                   0 = delta varint, 1 = bitmap
       varint  body_len               bytes of this block's body
     bodies, concatenated in block order

   Sparse blocks store postings exactly as the 'V' format does (delta
   varint, with the delta base reset to min - 1), so a sparse block costs
   the same bytes as its slice of a 'V' payload. Dense blocks — id range
   close to the count — store a bitmap over [min, max] followed by the
   non-id posting fields (Posting.encode_aux) of each member in
   ascending order; the ids come from the bitmap, for free. *)

let block_size = 128

(* A block is dense when its id span is within 4x its population: the
   bitmap then costs at most ceil(4/8) = half a byte per posting for the
   ids, always beating per-posting gap varints (>= 1 byte each). *)
let dense ~range ~count = range <= 4 * count

type t = {
  payload : string;  (* the enclosing (tagged) payload *)
  total : int;
  mins : int array;
  maxs : int array;
  counts : int array;
  bitmap : bool array;  (* per-block: body is a bitmap block *)
  offs : int array;  (* absolute body offset within [payload] *)
  lens : int array;
  suffix : int array;  (* suffix.(i) = postings in blocks i..; length n+1 *)
}

let n_blocks d = Array.length d.mins
let total d = d.total
let block_min d i = d.mins.(i)
let block_max d i = d.maxs.(i)
let suffix_count d i = d.suffix.(i)

(* --- encoding --- *)

let encode_block (l : Posting.t array) ~lo ~hi =
  (* Postings l.(lo) .. l.(hi - 1); returns (min, max, count, bitmap, body). *)
  let count = hi - lo in
  let bmin = l.(lo).Posting.node and bmax = l.(hi - 1).Posting.node in
  let range = bmax - bmin + 1 in
  let body = Storage.Codec.writer () in
  let as_bitmap = dense ~range ~count in
  if as_bitmap then begin
    let nbytes = (range + 7) / 8 in
    let bits = Bytes.make nbytes '\000' in
    for i = lo to hi - 1 do
      let bit = l.(i).Posting.node - bmin in
      Bytes.set bits (bit / 8)
        (Char.chr (Char.code (Bytes.get bits (bit / 8)) lor (1 lsl (bit mod 8))))
    done;
    Storage.Codec.write_raw body (Bytes.to_string bits);
    for i = lo to hi - 1 do
      Posting.encode_aux body l.(i)
    done
  end
  else begin
    let prev = ref (bmin - 1) in
    for i = lo to hi - 1 do
      Posting.encode body l.(i) ~prev_node:!prev;
      prev := l.(i).Posting.node
    done
  end;
  (bmin, bmax, count, as_bitmap, Storage.Codec.contents body)

(* The blocks of [l] from index [lo] on, cut every [block_size]. *)
let blocks_of (l : Posting.t array) ~lo =
  let n = Array.length l in
  List.init
    ((n - lo + block_size - 1) / block_size)
    (fun b ->
      let lo = lo + (b * block_size) in
      encode_block l ~lo ~hi:(min n (lo + block_size)))

(* Directory entries of [blocks]; [prev_max] is the max id of the block
   before the first one (-1 at the start of a list). *)
let write_entries w ~prev_max blocks =
  let prev_max = ref prev_max in
  List.iter
    (fun (bmin, bmax, count, as_bitmap, body) ->
      Storage.Codec.write_varint w (bmin - !prev_max - 1);
      Storage.Codec.write_varint w (bmax - bmin);
      Storage.Codec.write_varint w count;
      Storage.Codec.write_varint w (if as_bitmap then 1 else 0);
      Storage.Codec.write_varint w (String.length body);
      prev_max := bmax)
    blocks

let write_bodies w blocks =
  List.iter (fun (_, _, _, _, body) -> Storage.Codec.write_raw w body) blocks

let encode (l : Posting.t array) =
  let blocks = blocks_of l ~lo:0 in
  let w = Storage.Codec.writer () in
  Storage.Codec.write_varint w (Array.length l);
  Storage.Codec.write_varint w (List.length blocks);
  write_entries w ~prev_max:(-1) blocks;
  write_bodies w blocks;
  Storage.Codec.contents w

(* --- directory parsing --- *)

let corrupt msg = raise (Storage.Codec.Corrupt ("Plist_blocks: " ^ msg))

(* A directory entry is five varints, at least one byte each; a block
   body holds at least one byte per posting (a sparse posting is five
   varints, a dense one four plus its bitmap share). Both bounds are
   checked before anything is sized by a count read from the payload. *)
let directory payload ~pos =
  let r = Storage.Codec.reader_sub payload ~pos ~len:(String.length payload - pos) in
  let total = Storage.Codec.read_varint r in
  let nblocks = Storage.Codec.read_varint r in
  if nblocks < 0 || nblocks > Storage.Codec.remaining r / 5 then
    corrupt "block count exceeds payload";
  let mins = Array.make nblocks 0 in
  let maxs = Array.make nblocks 0 in
  let counts = Array.make nblocks 0 in
  let bitmap = Array.make nblocks false in
  let offs = Array.make nblocks 0 in
  let lens = Array.make nblocks 0 in
  let prev_max = ref (-1) in
  for i = 0 to nblocks - 1 do
    let bmin = !prev_max + 1 + Storage.Codec.read_varint r in
    let bmax = bmin + Storage.Codec.read_varint r in
    let count = Storage.Codec.read_varint r in
    let repr = Storage.Codec.read_varint r in
    let len = Storage.Codec.read_varint r in
    if count <= 0 then corrupt "empty block";
    if count > bmax - bmin + 1 then corrupt "block count exceeds id span";
    if count > len || len > String.length payload then
      corrupt "block count exceeds body length";
    (match repr with
    | 0 -> bitmap.(i) <- false
    | 1 -> bitmap.(i) <- true
    | _ -> corrupt "unknown block representation");
    mins.(i) <- bmin;
    maxs.(i) <- bmax;
    counts.(i) <- count;
    lens.(i) <- len;
    prev_max := bmax
  done;
  (* Bodies start where the directory ends. *)
  let off = ref (Storage.Codec.pos r) in
  for i = 0 to nblocks - 1 do
    offs.(i) <- !off;
    off := !off + lens.(i)
  done;
  if !off > String.length payload then corrupt "truncated bodies";
  let suffix = Array.make (nblocks + 1) 0 in
  for i = nblocks - 1 downto 0 do
    suffix.(i) <- suffix.(i + 1) + counts.(i)
  done;
  if suffix.(0) <> total then corrupt "block counts disagree with total";
  { payload; total; mins; maxs; counts; bitmap; offs; lens; suffix }

(* --- block walking ---

   The one parser of block bodies: [walk_block d i f] calls [f k node r]
   for the block's postings in ascending id order, with the posting's
   index within the block, its node id, and a reader positioned at its
   non-id fields (Posting.encode_aux), which [f] must consume. Every
   span, popcount and truncation check of a block lives here, so the
   full decode and the ids-only decode reject exactly the same bytes. *)
let walk_block d i f =
  let count = d.counts.(i) in
  let bmin = d.mins.(i) and bmax = d.maxs.(i) in
  let first = ref bmin and last = ref bmax in
  if d.bitmap.(i) then begin
    let range = bmax - bmin + 1 in
    let nbytes = (range + 7) / 8 in
    if nbytes > d.lens.(i) then corrupt "bitmap larger than block body";
    let aux =
      Storage.Codec.reader_sub d.payload
        ~pos:(d.offs.(i) + nbytes)
        ~len:(d.lens.(i) - nbytes)
    in
    let k = ref 0 in
    for b = 0 to nbytes - 1 do
      let byte = Char.code d.payload.[d.offs.(i) + b] in
      if byte <> 0 then
        for bit = 0 to 7 do
          if byte land (1 lsl bit) <> 0 then begin
            let node = bmin + (b * 8) + bit in
            if node > bmax then corrupt "bitmap bit outside block span";
            if !k >= count then corrupt "bitmap popcount exceeds block count";
            if !k = 0 then first := node;
            last := node;
            f !k node aux;
            incr k
          end
        done
    done;
    if !k <> count then corrupt "bitmap popcount disagrees with block count"
  end
  else begin
    let r = Storage.Codec.reader_sub d.payload ~pos:d.offs.(i) ~len:d.lens.(i) in
    let prev = ref (bmin - 1) in
    for k = 0 to count - 1 do
      let node = !prev + 1 + Storage.Codec.read_varint r in
      if k = 0 then first := node;
      f k node r;
      prev := node
    done;
    last := !prev
  end;
  if !first <> bmin || !last <> bmax then
    corrupt "block span disagrees with contents"

let no_posting =
  Posting.{ node = 0; children = [||]; leaf_count = 0; post = 0; parent = -1 }

let decode_block d i =
  let out = Array.make d.counts.(i) no_posting in
  walk_block d i (fun k node r -> out.(k) <- Posting.decode_aux r ~node);
  out

(* Block [i]'s first posting sits at index [total - suffix.(i)] of the
   whole list, so [decode] and [nodes] each fill one [total]-sized array
   in place. *)
let decode d =
  let out = Array.make d.total no_posting in
  for i = 0 to n_blocks d - 1 do
    let base = d.total - d.suffix.(i) in
    walk_block d i (fun k node r -> out.(base + k) <- Posting.decode_aux r ~node)
  done;
  out

let nodes d =
  let out = Array.make d.total 0 in
  for i = 0 to n_blocks d - 1 do
    let base = d.total - d.suffix.(i) in
    walk_block d i (fun k node r ->
        out.(base + k) <- node;
        Posting.skip_aux r)
  done;
  out

(* --- appending ---

   An append is re-encoding the last, partial block together with the new
   postings: every earlier block is full, so [encode] of the whole list
   would cut it at the same points and write the same entry and body
   bytes — they are copied as they are. Only the header (total, block
   count) changes in front of them. [encode] writes every inner block
   full, so an inner block of any other count is damage and raises. *)
let append payload ~pos (l : Posting.t array) =
  let d = directory payload ~pos in
  let nb = n_blocks d in
  let last = ref (if nb = 0 then -1 else d.maxs.(nb - 1)) in
  Array.iter
    (fun p ->
      if p.Posting.node <= !last then
        invalid_arg "Plist_blocks.append: postings must follow the list";
      last := p.Posting.node)
    l;
  for i = 0 to nb - 2 do
    if d.counts.(i) <> block_size then corrupt "short inner block"
  done;
  (* Where the directory entries start, and where the kept ones end. *)
  let r = Storage.Codec.reader_sub payload ~pos ~len:(String.length payload - pos) in
  ignore (Storage.Codec.read_varint r);
  ignore (Storage.Codec.read_varint r);
  let entries_start = Storage.Codec.pos r in
  let bodies_start = if nb = 0 then entries_start else d.offs.(0) in
  let stop = if nb = 0 then bodies_start else d.offs.(nb - 1) + d.lens.(nb - 1) in
  if stop <> String.length payload then corrupt "bytes after the last block";
  let keep = if nb > 0 && d.counts.(nb - 1) < block_size then nb - 1 else nb in
  let tail = if keep < nb then Array.append (decode_block d keep) l else l in
  let blocks = blocks_of tail ~lo:0 in
  for _ = 1 to 5 * keep do
    ignore (Storage.Codec.read_varint r)
  done;
  let entries_end = Storage.Codec.pos r in
  let bodies_end =
    if keep = 0 then bodies_start else d.offs.(keep - 1) + d.lens.(keep - 1)
  in
  let w = Storage.Codec.writer () in
  Storage.Codec.write_sub w payload ~pos:0 ~len:pos;
  Storage.Codec.write_varint w (d.total + Array.length l);
  Storage.Codec.write_varint w (keep + List.length blocks);
  Storage.Codec.write_sub w payload ~pos:entries_start
    ~len:(entries_end - entries_start);
  write_entries w ~prev_max:(if keep = 0 then -1 else d.maxs.(keep - 1)) blocks;
  Storage.Codec.write_sub w payload ~pos:bodies_start
    ~len:(bodies_end - bodies_start);
  write_bodies w blocks;
  Storage.Codec.contents w

(* First block index in [start, n_blocks) whose max >= id (binary search
   over the directory — the block-skip primitive), or n_blocks. *)
let find_block d ~start id =
  let n = n_blocks d in
  let rec bsearch lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if d.maxs.(mid) < id then bsearch (mid + 1) hi else bsearch lo mid
  in
  bsearch (max start 0) n
