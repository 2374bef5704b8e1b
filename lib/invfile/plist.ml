type t = Posting.t array

let empty = [||]
let is_empty l = Array.length l = 0
let length = Array.length

let of_list postings =
  let a = Array.of_list (List.sort Posting.compare postings) in
  for i = 1 to Array.length a - 1 do
    if a.(i - 1).Posting.node = a.(i).Posting.node then
      invalid_arg "Plist.of_list: duplicate node id"
  done;
  a

let nodes l = Array.map (fun p -> p.Posting.node) l

(* Index of the first posting with node id >= [id], or [length l]. *)
let lower_bound l id =
  let rec bsearch lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if l.(mid).Posting.node < id then bsearch (mid + 1) hi else bsearch lo mid
  in
  bsearch 0 (Array.length l)

let find l id =
  let i = lower_bound l id in
  if i < Array.length l && l.(i).Posting.node = id then Some l.(i) else None

let mem l id = Option.is_some (find l id)

(* Index of the first posting with node id >= [id], probing exponentially
   from [lo] before binary-searching the bracketed range — O(log gap)
   rather than O(log n), so a scan that advances monotonically through a
   long list pays for the distance it actually covers. *)
let gallop_lower_bound l ~lo id =
  let n = Array.length l in
  if lo >= n || l.(lo).Posting.node >= id then lo
  else begin
    (* invariant: l.(last).node < id *)
    let last = ref lo and step = ref 1 in
    let hi = ref (lo + 1) in
    while !hi < n && l.(!hi).Posting.node < id do
      last := !hi;
      step := !step * 2;
      hi := lo + !step
    done;
    let rec bsearch lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if l.(mid).Posting.node < id then bsearch (mid + 1) hi else bsearch lo mid
    in
    bsearch (!last + 1) (min !hi n)
  end

let inter a b =
  (* Sorted merge; gallop through the big side when sizes are skewed. *)
  let la = Array.length a and lb = Array.length b in
  let small, big = if la <= lb then (a, b) else (b, a) in
  let ls = Array.length small and lbg = Array.length big in
  if ls * 8 < lbg then begin
    let out = ref [] in
    let j = ref 0 in
    for i = 0 to ls - 1 do
      let id = small.(i).Posting.node in
      j := gallop_lower_bound big ~lo:!j id;
      if !j < lbg && big.(!j).Posting.node = id then begin
        out := small.(i) :: !out;
        incr j
      end
    done;
    Array.of_list (List.rev !out)
  end
  else begin
    let out = ref [] and i = ref 0 and j = ref 0 in
    while !i < la && !j < lb do
      let c = Int.compare a.(!i).Posting.node b.(!j).Posting.node in
      if c = 0 then begin
        out := a.(!i) :: !out;
        incr i;
        incr j
      end
      else if c < 0 then incr i
      else incr j
    done;
    Array.of_list (List.rev !out)
  end

let union a b =
  let out = ref [] and i = ref 0 and j = ref 0 in
  let la = Array.length a and lb = Array.length b in
  while !i < la && !j < lb do
    let c = Int.compare a.(!i).Posting.node b.(!j).Posting.node in
    if c <= 0 then begin
      out := a.(!i) :: !out;
      if c = 0 then incr j;
      incr i
    end
    else begin
      out := b.(!j) :: !out;
      incr j
    end
  done;
  while !i < la do
    out := a.(!i) :: !out;
    incr i
  done;
  while !j < lb do
    out := b.(!j) :: !out;
    incr j
  done;
  Array.of_list (List.rev !out)

let inter_many = function
  | [] -> invalid_arg "inter_many: empty intersection is the node universe"
  | first :: rest ->
    let sorted = List.sort (fun a b -> Int.compare (length a) (length b)) (first :: rest) in
    (match sorted with
    | [] -> assert false
    | hd :: tl -> List.fold_left inter hd tl)

let union_with_counts lists =
  let all = Array.concat lists in
  Array.sort Posting.compare all;
  let out = ref [] in
  let n = Array.length all in
  let i = ref 0 in
  while !i < n do
    let p = all.(!i) in
    let j = ref (!i + 1) in
    while !j < n && all.(!j).Posting.node = p.Posting.node do incr j done;
    out := (p, !j - !i) :: !out;
    i := !j
  done;
  Array.of_list (List.rev !out)

let filter f l = Array.of_list (List.filter f (Array.to_list l))

let filter_leaf_count_eq n l = filter (fun p -> p.Posting.leaf_count = n) l
let filter_leaf_count_ge n l = filter (fun p -> p.Posting.leaf_count >= n) l

(* --- path lists --- *)

type path = { head : int; cur : Posting.t }
type paths = path array

let paths_of_candidates l = Array.map (fun p -> { head = p.Posting.node; cur = p }) l

let compare_path a b =
  let c = Int.compare a.head b.head in
  if c <> 0 then c else Int.compare a.cur.Posting.node b.cur.Posting.node

let sort_dedup_paths l =
  let a = Array.of_list l in
  Array.sort compare_path a;
  let n = Array.length a in
  if n <= 1 then a
  else begin
    let out = ref [] in
    for i = n - 1 downto 0 do
      if i = 0 || compare_path a.(i - 1) a.(i) <> 0 then out := a.(i) :: !out
    done;
    Array.of_list !out
  end

let heads (p : paths) =
  Array.to_list p
  |> List.map (fun { head; _ } -> head)
  |> List.sort_uniq Int.compare
  |> Array.of_list

let join_child (ps : paths) l : paths =
  let out = ref [] in
  Array.iter
    (fun { head; cur } ->
      Array.iter
        (fun child ->
          match find l child with
          | Some p' -> out := { head; cur = p' } :: !out
          | None -> ())
        cur.Posting.children)
    ps;
  sort_dedup_paths !out

let join_descendant (ps : paths) l : paths =
  let out = ref [] in
  Array.iter
    (fun { head; cur } ->
      let i = ref (lower_bound l (cur.Posting.node + 1)) in
      let continue = ref true in
      while !continue && !i < Array.length l do
        let p' = l.(!i) in
        if p'.Posting.post < cur.Posting.post then begin
          out := { head; cur = p' } :: !out;
          incr i
        end
        else continue := false
        (* first non-descendant with a larger id: everything after is
           outside the subtree too (pre/post discipline) *)
      done)
    ps;
  sort_dedup_paths !out

(* --- head sets --- *)

type idset = (int * int * int) array (* (id, post, parent), sorted by id *)

let idset_empty : idset = [||]

let idset_of_postings l =
  Array.map (fun p -> (p.Posting.node, p.Posting.post, p.Posting.parent)) l

let idset_nodes h = Array.map (fun (id, _, _) -> id) h
let idset_parents h =
  Array.to_list h
  |> List.filter_map (fun (_, _, parent) -> if parent >= 0 then Some parent else None)
  |> List.sort_uniq Int.compare
let idset_is_empty h = Array.length h = 0
let idset_cardinal = Array.length

let idset_id (id, _, _) = id
let idset_post (_, post, _) = post

let idset_lower_bound (h : idset) id =
  let rec bsearch lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if idset_id h.(mid) < id then bsearch (mid + 1) hi else bsearch lo mid
  in
  bsearch 0 (Array.length h)

let idset_mem h id =
  let i = idset_lower_bound h id in
  i < Array.length h && idset_id h.(i) = id

let covers_child p h =
  Array.exists (fun c -> idset_mem h c) p.Posting.children

let covers_descendant p h =
  let i = idset_lower_bound h (p.Posting.node + 1) in
  i < Array.length h && idset_post h.(i) < p.Posting.post

let idset_to_bytes (h : idset) =
  let w = Storage.Codec.writer () in
  Storage.Codec.write_varint w (Array.length h);
  let prev = ref (-1) in
  Array.iter
    (fun (id, post, parent) ->
      Storage.Codec.write_varint w (id - !prev - 1);
      Storage.Codec.write_varint w post;
      Storage.Codec.write_varint w (if parent < 0 then 0 else id - parent);
      prev := id)
    h;
  Storage.Codec.contents w

let idset_of_bytes s : idset =
  let r = Storage.Codec.reader s in
  let n = Storage.Codec.read_count r in
  let a = Array.make (max n 1) (0, 0, -1) in
  let prev = ref (-1) in
  for i = 0 to n - 1 do
    let id = !prev + 1 + Storage.Codec.read_varint r in
    let post = Storage.Codec.read_varint r in
    let gap = Storage.Codec.read_varint r in
    prev := id;
    a.(i) <- (id, post, if gap = 0 then -1 else id - gap)
  done;
  if n = 0 then [||] else a

let pp ppf l =
  Format.fprintf ppf "⟨%a⟩"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") Posting.pp)
    (Array.to_list l)

let pp_paths ppf ps =
  Format.fprintf ppf "⟨%a⟩"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf { head; cur } -> Format.fprintf ppf "(%d→%a)" head Posting.pp cur))
    (Array.to_list ps)

(* --- serialization ---

   Payloads carry a one-byte format tag: 'V' = varint/delta,
   'B' = columnar frame-of-reference bitpacking (see Storage.Bitpack),
   'C' = block-partitioned compressed (see Plist_blocks; the default). *)

type codec = Varint | Bitpacked | Blocked

let encode w l =
  Storage.Codec.write_varint w (Array.length l);
  let prev = ref (-1) in
  Array.iter
    (fun p ->
      Posting.encode w p ~prev_node:!prev;
      prev := p.Posting.node)
    l

let decode r =
  let n = Storage.Codec.read_count r in
  if n = 0 then [||]
  else begin
    (* explicit loop: the decode order must be sequential *)
    let prev = ref (-1) in
    let first = Posting.decode r ~prev_node:!prev in
    prev := first.Posting.node;
    let a = Array.make n first in
    for i = 1 to n - 1 do
      let p = Posting.decode r ~prev_node:!prev in
      prev := p.Posting.node;
      a.(i) <- p
    done;
    a
  end

(* Columnar bitpacked layout: per-posting fields split into integer
   columns, each delta/offset-transformed to small non-negative values. *)
let to_bitpacked l =
  let n = Array.length l in
  let node_gaps = Array.make n 0 in
  let leaf_counts = Array.make n 0 in
  let posts = Array.make n 0 in
  let parent_gaps = Array.make n 0 in
  let child_counts = Array.make n 0 in
  let child_gaps = ref [] in
  let prev = ref (-1) in
  Array.iteri
    (fun i p ->
      node_gaps.(i) <- p.Posting.node - !prev - 1;
      prev := p.Posting.node;
      leaf_counts.(i) <- p.Posting.leaf_count;
      posts.(i) <- p.Posting.post;
      parent_gaps.(i) <-
        (if p.Posting.parent < 0 then 0 else p.Posting.node - p.Posting.parent);
      child_counts.(i) <- Array.length p.Posting.children;
      (* children exceed their parent id: store child - node - 1, delta
         within the (ascending) child list *)
      let prev_child = ref p.Posting.node in
      Array.iter
        (fun c ->
          child_gaps := (c - !prev_child - 1) :: !child_gaps;
          prev_child := c)
        p.Posting.children)
    l;
  let w = Storage.Codec.writer () in
  Storage.Codec.write_string w (Storage.Bitpack.pack node_gaps);
  Storage.Codec.write_string w (Storage.Bitpack.pack leaf_counts);
  Storage.Codec.write_string w (Storage.Bitpack.pack posts);
  Storage.Codec.write_string w (Storage.Bitpack.pack parent_gaps);
  Storage.Codec.write_string w (Storage.Bitpack.pack child_counts);
  Storage.Codec.write_string w
    (Storage.Bitpack.pack (Array.of_list (List.rev !child_gaps)));
  Storage.Codec.contents w

let of_bitpacked s =
  let r = Storage.Codec.reader s in
  let node_gaps = Storage.Bitpack.unpack (Storage.Codec.read_string r) in
  let leaf_counts = Storage.Bitpack.unpack (Storage.Codec.read_string r) in
  let posts = Storage.Bitpack.unpack (Storage.Codec.read_string r) in
  let parent_gaps = Storage.Bitpack.unpack (Storage.Codec.read_string r) in
  let child_counts = Storage.Bitpack.unpack (Storage.Codec.read_string r) in
  let child_gaps = Storage.Bitpack.unpack (Storage.Codec.read_string r) in
  let n = Array.length node_gaps in
  if
    Array.length leaf_counts <> n || Array.length posts <> n
    || Array.length parent_gaps <> n || Array.length child_counts <> n
  then raise (Storage.Codec.Corrupt "Plist.of_bitpacked: column length mismatch");
  let prev = ref (-1) in
  let gi = ref 0 in
  let out = ref [] in
  for i = 0 to n - 1 do
    let node = !prev + 1 + node_gaps.(i) in
    prev := node;
    let parent = if parent_gaps.(i) = 0 then -1 else node - parent_gaps.(i) in
    let k = child_counts.(i) in
    if k > Array.length child_gaps - !gi then
      raise (Storage.Codec.Corrupt "Plist.of_bitpacked: truncated children");
    let prev_child = ref node in
    let children = Array.make k 0 in
    for j = 0 to k - 1 do
      let c = !prev_child + 1 + child_gaps.(!gi) in
      incr gi;
      prev_child := c;
      children.(j) <- c
    done;
    out :=
      { Posting.node; children; leaf_count = leaf_counts.(i); post = posts.(i); parent }
      :: !out
  done;
  Array.of_list (List.rev !out)

let to_bytes ?(codec = Blocked) l =
  match codec with
  | Varint ->
    let w = Storage.Codec.writer () in
    Storage.Codec.write_varint w (Char.code 'V');
    encode w l;
    Storage.Codec.contents w
  | Bitpacked -> "B" ^ to_bitpacked l
  | Blocked -> "C" ^ Plist_blocks.encode l

let codec_of_bytes s =
  if String.length s = 0 then raise (Storage.Codec.Corrupt "Plist: empty payload")
  else
    match s.[0] with
    | 'V' -> Varint
    | 'B' -> Bitpacked
    | 'C' -> Blocked
    | _ -> raise (Storage.Codec.Corrupt "Plist: unknown payload format")

let of_bytes s =
  match codec_of_bytes s with
  | Varint ->
    let r = Storage.Codec.reader s in
    let tag = Storage.Codec.read_varint r in
    assert (tag = Char.code 'V');
    decode r
  | Bitpacked -> of_bitpacked (String.sub s 1 (String.length s - 1))
  | Blocked -> Plist_blocks.decode (Plist_blocks.directory s ~pos:1)

let append_encoded s l =
  match codec_of_bytes s with
  | Blocked -> Plist_blocks.append s ~pos:1 l
  | (Varint | Bitpacked) as codec -> to_bytes ~codec (Array.append (of_bytes s) l)

let nodes_of_bytes s =
  match codec_of_bytes s with
  | Blocked -> Plist_blocks.nodes (Plist_blocks.directory s ~pos:1)
  | Varint | Bitpacked -> nodes (of_bytes s)

let restrict l ids =
  let nl = Array.length l and ni = Array.length ids in
  let out = ref [] and i = ref 0 and j = ref 0 in
  while !i < nl && !j < ni do
    let c = Int.compare l.(!i).Posting.node ids.(!j) in
    if c = 0 then begin
      out := l.(!i) :: !out;
      incr i;
      incr j
    end
    else if c < 0 then incr i
    else incr j
  done;
  Array.of_list (List.rev !out)
