(* Differential tests for the optimized inverted-list kernels.

   The galloping intersection in Plist, the blocked 'C' payload format of
   Plist_blocks and the block-skipping cursors of Plist_stream must agree
   — byte for byte — with the frozen Plist_ref oracle on every input.
   Generators derive each posting deterministically from its node id, so
   equal ids always carry identical payloads: the invariant every
   intersection kernel relies on when lists come from the same builder. *)

module P = Invfile.Posting
module L = Invfile.Plist
module R = Invfile.Plist_ref
module B = Invfile.Plist_blocks
module St = Invfile.Plist_stream

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Children strictly increasing and above the node id, parent strictly
   below it (or -1): the shape of real builder output, where ids are
   pre-order DFS ranks. *)
let posting_of_id node =
  let h = (node * 2654435761) land 0x3FFFFFFF in
  let n_children = h land 3 in
  let step = 1 + ((h lsr 2) land 7) in
  let children = Array.init n_children (fun i -> node + 1 + ((i + 1) * step)) in
  let parent = if node = 0 || h land 16 = 0 then -1 else (h lsr 5) mod node in
  {
    P.node;
    children;
    leaf_count = (h lsr 8) land 15;
    post = node + ((h lsr 12) land 255);
    parent;
  }

(* Raw int lists keep QCheck's built-in shrinking; the transform to a
   sorted, deduplicated postings array happens inside each property. *)
let plist_of_ints ints =
  ints
  |> List.map (fun i -> i land 0xFFFFF)
  |> List.sort_uniq Int.compare
  |> List.map posting_of_id
  |> Array.of_list

let same name (a : L.t) (b : R.t) =
  if a <> b then
    Alcotest.failf "%s: kernels diverge (%d vs %d postings)" name
      (Array.length a) (Array.length b);
  (* arrays equal must also mean payloads byte-identical once re-encoded *)
  List.iter
    (fun codec ->
      if not (String.equal (L.to_bytes ~codec a) (L.to_bytes ~codec b)) then
        Alcotest.failf "%s: equal lists re-encode differently" name)
    [ L.Varint; L.Blocked ];
  true

(* --- binary operations vs the oracle --- *)

(* Two id bounds: 600 forces heavy overlap and dense blocks, 200_000
   yields sparse lists whose intersection exercises skipping. *)
let arb_pair bound =
  QCheck.(pair (list (int_bound bound)) (list (int_bound bound)))

let prop_inter (xs, ys) =
  let a = plist_of_ints xs and b = plist_of_ints ys in
  same "inter" (L.inter a b) (R.inter a b)
  && same "inter sym" (L.inter b a) (R.inter b a)

let prop_union (xs, ys) =
  let a = plist_of_ints xs and b = plist_of_ints ys in
  same "union" (L.union a b) (R.union a b)

(* Skewed sizes drive Plist.inter into its galloping branch. *)
let arb_skewed =
  QCheck.(pair (list_of_size Gen.(0 -- 4) (int_bound 200_000))
            (list_of_size Gen.(100 -- 400) (int_bound 200_000)))

let prop_inter_skewed (xs, ys) =
  let small = plist_of_ints xs and big = plist_of_ints ys in
  same "gallop" (L.inter small big) (R.inter small big)
  && same "gallop sym" (L.inter big small) (R.inter big small)

(* --- n-way operations, materialized and streamed --- *)

let arb_family bound =
  QCheck.(list_of_size Gen.(1 -- 5) (list (int_bound bound)))

(* Alternate payload codecs across the family: the streamed kernels must
   not care whether an input is a 'V' or a 'C' payload. *)
let encode_mixed lists =
  List.mapi
    (fun i l ->
      L.to_bytes ~codec:(if i land 1 = 0 then L.Blocked else L.Varint) l)
    lists

let prop_inter_many ints_lists =
  let lists = List.map plist_of_ints ints_lists in
  same "inter_many" (L.inter_many lists) (R.inter_many lists)
  && same "inter_many streamed"
       (St.inter_many (encode_mixed lists))
       (R.inter_many lists)

let counts_same name a b =
  if a <> b then
    Alcotest.failf "%s: multiset kernels diverge (%d vs %d entries)" name
      (Array.length a) (Array.length b);
  true

let prop_union_with_counts ints_lists =
  let lists = List.map plist_of_ints ints_lists in
  counts_same "union_with_counts" (L.union_with_counts lists)
    (R.union_with_counts lists)
  && counts_same "union_with_counts streamed"
       (St.union_with_counts (encode_mixed lists))
       (R.union_with_counts lists)

(* --- serialization: round trips and canonical bytes --- *)

let prop_roundtrip ints =
  let l = plist_of_ints ints in
  List.for_all
    (fun codec ->
      let payload = L.to_bytes ~codec l in
      let back = L.of_bytes payload in
      if back <> l then Alcotest.failf "round trip lost postings";
      if L.codec_of_bytes payload <> codec then
        Alcotest.failf "codec tag not preserved";
      (* canonical: re-encoding the decoded list reproduces the payload *)
      if not (String.equal (L.to_bytes ~codec back) payload) then
        Alcotest.failf "payload not canonical";
      true)
    [ L.Varint; L.Bitpacked; L.Blocked ]

(* --- cursors: sequential reads and skip_to --- *)

let cursors_of l =
  [
    ("mem", St.cursor_of_plist l);
    ("varint", St.cursor_of_bytes (L.to_bytes ~codec:L.Varint l));
    ("blocked", St.cursor_of_bytes (L.to_bytes ~codec:L.Blocked l));
  ]

let prop_cursor_drain ints =
  let l = plist_of_ints ints in
  List.for_all
    (fun (name, c) ->
      check_int (name ^ " remaining") (Array.length l) (St.remaining c);
      Array.iter
        (fun p ->
          match St.next c with
          | Some q when q = p -> ()
          | Some q ->
            Alcotest.failf "%s: decoded node %d, expected %d" name q.P.node
              p.P.node
          | None -> Alcotest.failf "%s: cursor ended early" name)
        l;
      check_bool (name ^ " exhausted") true (St.next c = None);
      true)
    (cursors_of l)

(* Ascending probes against every cursor source: skip_to must land on
   exactly the posting the oracle's lower_bound names, and account for
   every skipped posting in [remaining]. *)
let prop_cursor_skip_to (ints, probes) =
  let l = plist_of_ints ints in
  let probes = List.sort_uniq Int.compare (List.map (fun i -> i land 0xFFFFF) probes) in
  List.for_all
    (fun (name, c) ->
      List.iter
        (fun id ->
          let lb = R.lower_bound l id in
          (match St.skip_to c id with
          | Some p when lb < Array.length l && p = l.(lb) -> ()
          | None when lb = Array.length l -> ()
          | Some p ->
            Alcotest.failf "%s: skip_to %d landed on node %d" name id p.P.node
          | None -> Alcotest.failf "%s: skip_to %d ended early" name id);
          check_int
            (Printf.sprintf "%s remaining after skip_to %d" name id)
            (Array.length l - lb) (St.remaining c))
        probes;
      true)
    (cursors_of l)

(* --- block format edges --- *)

(* Lengths straddling the 128-posting block boundary, dense (consecutive
   ids — bitmap blocks) and sparse (stride 1009 — varint blocks). *)
let test_block_boundaries () =
  List.iter
    (fun n ->
      List.iter
        (fun (shape, stride) ->
          let l = Array.init n (fun i -> posting_of_id (i * stride)) in
          let payload = L.to_bytes ~codec:L.Blocked l in
          let back = L.of_bytes payload in
          if back <> l then
            Alcotest.failf "blocked round trip, %s n=%d" shape n;
          let c = St.cursor_of_bytes payload in
          check_int (Printf.sprintf "%s n=%d remaining" shape n) n
            (St.remaining c);
          (* drain through skip_to on every other posting *)
          let seen = ref 0 in
          let rec drain () =
            match St.next c with
            | None -> ()
            | Some p ->
              check_int "drained in order" l.(!seen).P.node p.P.node;
              incr seen;
              drain ()
          in
          drain ();
          check_int (Printf.sprintf "%s n=%d drained" shape n) n !seen)
        [ ("dense", 1); ("sparse", 1009) ])
    [ 0; 1; 127; 128; 129; 255; 256; 257; 1000 ]

(* The directory itself: spans, suffix counts and find_block. *)
let test_block_directory () =
  let l = Array.init 300 (fun i -> posting_of_id (i * 7)) in
  let body = B.encode l in
  let d = B.directory body ~pos:0 in
  check_int "total" 300 (B.total d);
  check_int "blocks" 3 (B.n_blocks d);
  check_int "suffix 0" 300 (B.suffix_count d 0);
  check_int "suffix last" 0 (B.suffix_count d (B.n_blocks d));
  for i = 0 to B.n_blocks d - 1 do
    let b = B.decode_block d i in
    check_int "block min" b.(0).P.node (B.block_min d i);
    check_int "block max" b.(Array.length b - 1).P.node (B.block_max d i)
  done;
  check_bool "decode" true (B.decode d = l);
  (* find_block: first block whose max covers the probe *)
  check_int "find first" 0 (B.find_block d ~start:0 0);
  check_int "find mid" 1 (B.find_block d ~start:0 (B.block_max d 0 + 1));
  check_int "find honors start" 2 (B.find_block d ~start:2 0);
  check_int "find past end" 3 (B.find_block d ~start:0 (B.block_max d 2 + 1))

(* Representation heuristic: consecutive ids become bitmap blocks
   (smaller than their varint encoding), stride-1009 ids stay varint. *)
let test_representation_heuristic () =
  check_bool "dense block" true (B.dense ~range:127 ~count:128);
  check_bool "sparse block" false (B.dense ~range:(127 * 1009) ~count:128);
  let dense = Array.init 256 posting_of_id in
  let sparse = Array.init 256 (fun i -> posting_of_id (i * 1009)) in
  let size l = String.length (L.to_bytes ~codec:L.Blocked l) in
  let vsize l = String.length (L.to_bytes ~codec:L.Varint l) in
  check_bool "bitmap no bigger than varint on dense runs" true
    (size dense <= vsize dense + 16);
  (* sparse lists pay only the directory over the plain varint form *)
  check_bool "blocked stays close to varint on sparse lists" true
    (size sparse <= vsize sparse + 16 * (256 / B.block_size + 1))

(* Truncating a blocked payload anywhere must be detected, not silently
   decoded: the directory pins every block's span, count and byte length. *)
let test_blocked_truncation_detected () =
  let l = Array.init 200 (fun i -> posting_of_id (i * 3)) in
  let payload = L.to_bytes ~codec:L.Blocked l in
  for len = 1 to String.length payload - 1 do
    let prefix = String.sub payload 0 len in
    match L.of_bytes prefix with
    | exception Storage.Codec.Corrupt _ -> ()
    | exception e ->
      Alcotest.failf "truncation at %d raised %s" len (Printexc.to_string e)
    | _ -> Alcotest.failf "truncation at %d decoded silently" len
  done

(* --- block append ---

   Plist.append_encoded extends a payload without decoding its full
   blocks; for every codec the result must be byte-identical to encoding
   the concatenation. Base lengths straddle block boundaries, appends
   range over 1..300 postings, and base and tail each come dense (bitmap
   blocks) or sparse (varint blocks). *)

let append_lengths =
  [ 0; 1; 2; 63; 126; 127; 128; 129; 200; 254; 255; 256; 257; 383; 384; 385;
    511; 512; 513; 640; 999; 1000 ]

let appended_counts = [ 1; 2; 3; 64; 126; 127; 128; 129; 255; 256; 257; 300 ]

let test_block_append () =
  List.iter
    (fun n ->
      List.iter
        (fun ((bname, bstride), (tname, tstride)) ->
          let base = Array.init n (fun i -> posting_of_id (i * bstride)) in
          let next = if n = 0 then 0 else ((n - 1) * bstride) + 1 in
          List.iter
            (fun m ->
              let tail = Array.init m (fun i -> posting_of_id (next + (i * tstride))) in
              let all = Array.append base tail in
              List.iter
                (fun (cname, codec) ->
                  let got = L.append_encoded (L.to_bytes ~codec base) tail in
                  if got <> L.to_bytes ~codec all then
                    Alcotest.failf "%s append, %s base n=%d + %s tail m=%d" cname
                      bname n tname m)
                [ ("C", L.Blocked); ("V", L.Varint); ("B", L.Bitpacked) ])
            appended_counts)
        [ (("dense", 1), ("dense", 1)); (("dense", 1), ("sparse", 1009));
          (("sparse", 1009), ("dense", 1)); (("sparse", 1009), ("sparse", 1009)) ])
    append_lengths;
  (* the untagged entry point keeps whatever precedes [pos] *)
  let l = Array.init 300 (fun i -> posting_of_id (i * 5)) in
  let tail = [| posting_of_id 2000 |] in
  check_bool "prefix kept" true
    (B.append ("xyz" ^ B.encode l) ~pos:3 tail
    = "xyz" ^ B.encode (Array.append l tail));
  check_bool "empty append is the payload" true (B.append (B.encode l) ~pos:0 [||] = B.encode l);
  match B.append (B.encode l) ~pos:0 [| posting_of_id 5 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "append of an id inside the list accepted"

(* Damaged payloads: every truncation must raise Corrupt. A flipped bit
   inside a block that append copies unread cannot be noticed there, so
   for each single-bit flip append must either raise Corrupt, refuse the
   tail because the flipped directory now ends above it, or keep the damage
   for a reader: its output fails to decode exactly when the flipped
   payload does, and otherwise decodes to the flipped payload's ids
   followed by the tail's. (Ids, not whole postings: re-encoding the
   last block normalizes a garbage parent gap, as any decode and
   re-encode would.) A flip in the total and one in the last block's
   bitmap must raise. *)
let test_block_append_damaged () =
  (* a bitmap block, a varint block and a partial bitmap block *)
  let l =
    Array.init 300 (fun i ->
        posting_of_id (if i < 128 then i else if i < 256 then i * 1009 else 300_000 + i))
  in
  let tail = Array.init 5 (fun i -> posting_of_id (400_000 + i)) in
  let payload = L.to_bytes ~codec:L.Blocked l in
  let outcome payload =
    match L.of_bytes payload with
    | l -> Some l
    | exception Storage.Codec.Corrupt _ -> None
  in
  for len = 0 to String.length payload - 1 do
    match L.append_encoded (String.sub payload 0 len) tail with
    | exception Storage.Codec.Corrupt _ -> ()
    | _ -> Alcotest.failf "append to a payload truncated at %d accepted" len
  done;
  let flip pos bit =
    let b = Bytes.of_string payload in
    Bytes.set b pos (Char.chr (Char.code payload.[pos] lxor (1 lsl bit)));
    Bytes.to_string b
  in
  (* byte 0 is Plist's codec tag: flipping it changes the codec, not the
     blocked body *)
  for pos = 1 to String.length payload - 1 do
    for bit = 0 to 7 do
      let damaged = flip pos bit in
      match L.append_encoded damaged tail with
      | exception Storage.Codec.Corrupt _ -> ()
      | exception Invalid_argument _ ->
        let d = B.directory damaged ~pos:1 in
        if B.block_max d (B.n_blocks d - 1) < 400_000 then
          Alcotest.failf "byte %d bit %d: tail refused though it follows" pos bit
      | out ->
        let ids = Option.map L.nodes in
        let want = ids (Option.map (fun d -> Array.append d tail) (outcome damaged)) in
        if ids (outcome out) <> want then
          Alcotest.failf "byte %d bit %d: append changed what the payload decodes to"
            pos bit
    done
  done;
  let raises what damaged =
    match L.append_encoded damaged tail with
    | exception Storage.Codec.Corrupt _ -> ()
    | _ -> Alcotest.failf "%s: append accepted" what
  in
  (* total = 300 is the two-byte varint at bytes 1-2 *)
  raises "total off by one" (flip 1 0);
  (* the last block (ids 300256..300299) is the payload's last body: a
     6-byte bitmap, then the postings' non-id fields *)
  let aux = Storage.Codec.writer () in
  Array.iteri (fun i p -> if i >= 256 then P.encode_aux aux p) l;
  let bitmap = String.length payload - String.length (Storage.Codec.contents aux) - 6 in
  raises "last block's first bit cleared" (flip bitmap 0);
  (* [encode] fills every inner block: a directory with a short one (two
     sparse blocks of two postings) decodes, but is not appended to *)
  let short =
    let blocks =
      [ [| posting_of_id 0; posting_of_id 1000 |];
        [| posting_of_id 2000; posting_of_id 3000 |] ]
    in
    let body ps =
      let w = Storage.Codec.writer () in
      let prev = ref (ps.(0).P.node - 1) in
      Array.iter
        (fun p ->
          P.encode w p ~prev_node:!prev;
          prev := p.P.node)
        ps;
      Storage.Codec.contents w
    in
    let w = Storage.Codec.writer () in
    Storage.Codec.write_raw w "C";
    Storage.Codec.write_varint w 4;
    Storage.Codec.write_varint w 2;
    let prev_max = ref (-1) in
    List.iter
      (fun ps ->
        let bmin = ps.(0).P.node and bmax = ps.(1).P.node in
        List.iter (Storage.Codec.write_varint w)
          [ bmin - !prev_max - 1; bmax - bmin; 2; 0; String.length (body ps) ];
        prev_max := bmax)
      blocks;
    List.iter (fun ps -> Storage.Codec.write_raw w (body ps)) blocks;
    Storage.Codec.contents w
  in
  Alcotest.(check (array int)) "short inner block decodes" [| 0; 1000; 2000; 3000 |]
    (L.nodes (L.of_bytes short));
  raises "short inner block" short

(* --- the ids-only decode ---

   Plist.nodes_of_bytes walks 'C' blocks without building postings; it
   must agree with the full decode on every payload, well-formed or not:
   equal ids, or Corrupt from both sides. Any other exception escapes
   and fails the test. *)

let ids_outcome f =
  match f () with
  | ids -> Some ids
  | exception Storage.Codec.Corrupt _ -> None

let ids_agree ctx payload =
  let full = ids_outcome (fun () -> L.nodes (L.of_bytes payload)) in
  let fast = ids_outcome (fun () -> L.nodes_of_bytes payload) in
  if full <> fast then
    Alcotest.failf "%s: ids-only decode diverges (%s vs %s)" ctx
      (if full = None then "corrupt" else "ids")
      (if fast = None then "corrupt" else "ids")

let test_nodes_of_bytes () =
  List.iter
    (fun n ->
      List.iter
        (fun (shape, stride) ->
          let l = Array.init n (fun i -> posting_of_id (i * stride)) in
          List.iter
            (fun (cname, codec) ->
              let payload = L.to_bytes ~codec l in
              let ctx = Printf.sprintf "%s %s n=%d" cname shape n in
              if L.nodes_of_bytes payload <> L.nodes l then
                Alcotest.failf "%s: ids differ" ctx;
              ids_agree ctx payload)
            [ ("V", L.Varint); ("B", L.Bitpacked); ("C", L.Blocked) ])
        [ ("dense", 1); ("sparse", 1009) ])
    [ 0; 1; 127; 128; 129; 255; 256; 257; 1000 ]

(* Every truncation and every single-byte mutation (three xor masks per
   position) of a two-block payload mixing a bitmap and a varint block. *)
let test_nodes_of_bytes_damaged () =
  let l =
    Array.init 200 (fun i -> posting_of_id (if i < 128 then i else i * 1009))
  in
  List.iter
    (fun codec ->
      let payload = L.to_bytes ~codec l in
      for len = 0 to String.length payload - 1 do
        ids_agree (Printf.sprintf "truncated at %d" len) (String.sub payload 0 len)
      done;
      String.iteri
        (fun pos c ->
          List.iter
            (fun mask ->
              let b = Bytes.of_string payload in
              Bytes.set b pos (Char.chr (Char.code c lxor mask));
              ids_agree
                (Printf.sprintf "byte %d xor %d" pos mask)
                (Bytes.to_string b))
            [ 0x01; 0x80; 0xff ])
        payload)
    [ L.Varint; L.Bitpacked; L.Blocked ]

(* --- hostile counts ---

   A count read from a payload must be checked against the bytes left
   before it sizes an allocation: each case below is a few bytes claiming
   up to 2^40 elements, and must fail with Corrupt having allocated next
   to nothing. *)

let varints ns =
  let w = Storage.Codec.writer () in
  List.iter (Storage.Codec.write_varint w) ns;
  Storage.Codec.contents w

let rejected_cheaply name f =
  let before = Gc.allocated_bytes () in
  (match f () with
  | _ -> Alcotest.failf "%s: hostile count decoded" name
  | exception Storage.Codec.Corrupt _ -> ()
  | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e));
  let spent = Gc.allocated_bytes () -. before in
  if spent > 1e6 then Alcotest.failf "%s: allocated %.0f bytes" name spent

let test_hostile_counts () =
  let huge = 1 lsl 40 in
  let blocked nblocks = "C" ^ varints [ 0; nblocks ] ^ String.make 4 '\000' in
  let cases =
    [
      ("'C' with 2^40 blocks", blocked huge);
      ("'C' with 50M blocks", blocked 50_000_000);
      ( "'C' block of 2^40 postings",
        "C" ^ varints [ huge; 1; 0; huge; huge; 0; 8 ] ^ String.make 8 '\000' );
      ("'V' with 2^40 postings", "V" ^ varints [ huge; 0; 0; 0; 0; 0 ]);
      ("'V' posting with 2^40 children", "V" ^ varints [ 1; 0; 0; 0; 0; huge ]);
      ( "'B' column of 2^40 values",
        "B" ^ varints [ 6 ] ^ varints [ huge ] ^ String.make 8 '\000' );
    ]
  in
  List.iter
    (fun (name, payload) ->
      rejected_cheaply name (fun () -> L.of_bytes payload);
      rejected_cheaply (name ^ ", ids only") (fun () -> L.nodes_of_bytes payload))
    cases;
  let r () = Storage.Codec.reader (varints [ huge; 1; 2 ]) in
  rejected_cheaply "read_int_array" (fun () -> Storage.Codec.read_int_array (r ()));
  rejected_cheaply "read_int_list" (fun () -> Storage.Codec.read_int_list (r ()));
  rejected_cheaply "skip_int_array" (fun () -> Storage.Codec.skip_int_array (r ()));
  rejected_cheaply "idset_of_bytes" (fun () -> L.idset_of_bytes (varints [ huge; 1 ]))

(* --- skew: the headline kernel path, 2 vs 100_000 postings --- *)

let test_skewed_intersection () =
  let big = Array.init 100_000 (fun i -> posting_of_id (i * 3)) in
  let small = [| posting_of_id 0; posting_of_id 150_000; posting_of_id 299_997 |] in
  let expect = R.inter small big in
  check_int "oracle finds the planted hits" 3 (Array.length expect);
  check_bool "gallop" true (L.inter small big = expect);
  check_bool "gallop sym" true (L.inter big small = expect);
  let payloads =
    [ L.to_bytes ~codec:L.Blocked small; L.to_bytes ~codec:L.Blocked big ]
  in
  check_bool "streamed" true (St.inter_many payloads = expect)

(* --- the shared inter_many contract --- *)

let empty_family_message =
  Invalid_argument "inter_many: empty intersection is the node universe"

let test_empty_family_contract () =
  Alcotest.check_raises "Plist" empty_family_message (fun () ->
      ignore (L.inter_many []));
  Alcotest.check_raises "Plist_stream" empty_family_message (fun () ->
      ignore (St.inter_many []));
  Alcotest.check_raises "Plist_ref" empty_family_message (fun () ->
      ignore (R.inter_many []))

(* --- degenerate queries reach the engine as answers, not crashes --- *)

module E = Containment.Engine

let test_degenerate_queries () =
  let values = List.map Testutil.v Testutil.licences_strings in
  let n_records = List.length values in
  List.iter
    (fun node_table ->
      let inv = Containment.Collection.of_values ~node_table values in
      List.iter
        (fun streamed ->
          let config = { E.default with E.streamed } in
          let ctx = Printf.sprintf "node_table:%b streamed:%b" node_table streamed in
          (* {} is contained in every record *)
          let r = E.query ~config inv (Testutil.v "{}") in
          check_int (ctx ^ " {} matches all") n_records (List.length r.E.records);
          (* {{}} needs some internal child anywhere below the root *)
          let r2 = E.query ~config inv (Testutil.v "{{}}") in
          check_bool (ctx ^ " {{}} answered") true
            (List.for_all (fun id -> id >= 0 && id < n_records) r2.E.records))
        [ false; true ])
    [ true; false ]

let qc = Testutil.qcheck_case

let () =
  Alcotest.run "kernels"
    [
      ( "differential",
        [
          qc ~name:"inter = ref (dense)" (arb_pair 600) prop_inter;
          qc ~name:"inter = ref (sparse)" (arb_pair 200_000) prop_inter;
          qc ~name:"inter = ref (skewed)" arb_skewed prop_inter_skewed;
          qc ~name:"union = ref" (arb_pair 600) prop_union;
          qc ~name:"inter_many = ref, mixed codecs" (arb_family 800)
            prop_inter_many;
          qc ~name:"union_with_counts = ref, mixed codecs" (arb_family 800)
            prop_union_with_counts;
        ] );
      ( "serialization",
        [
          qc ~name:"round trip + canonical, all codecs"
            QCheck.(list (int_bound 100_000))
            prop_roundtrip;
        ] );
      ( "cursors",
        [
          qc ~name:"drain all sources" QCheck.(list (int_bound 50_000))
            prop_cursor_drain;
          qc ~name:"skip_to = oracle lower_bound"
            QCheck.(pair (list (int_bound 50_000)) (list (int_bound 50_000)))
            prop_cursor_skip_to;
        ] );
      ( "blocks",
        [
          Alcotest.test_case "boundary lengths" `Quick test_block_boundaries;
          Alcotest.test_case "directory" `Quick test_block_directory;
          Alcotest.test_case "representation heuristic" `Quick
            test_representation_heuristic;
          Alcotest.test_case "truncation detected" `Quick
            test_blocked_truncation_detected;
          Alcotest.test_case "skewed intersection" `Quick
            test_skewed_intersection;
          Alcotest.test_case "append = encode of the concatenation" `Quick
            test_block_append;
          Alcotest.test_case "append to damaged payloads" `Quick
            test_block_append_damaged;
          Alcotest.test_case "ids-only decode = full decode" `Quick
            test_nodes_of_bytes;
          Alcotest.test_case "ids-only decode on damaged payloads" `Quick
            test_nodes_of_bytes_damaged;
          Alcotest.test_case "hostile counts rejected" `Quick
            test_hostile_counts;
        ] );
      ( "contract",
        [
          Alcotest.test_case "empty family message" `Quick
            test_empty_family_contract;
          Alcotest.test_case "degenerate engine queries" `Quick
            test_degenerate_queries;
        ] );
    ]
