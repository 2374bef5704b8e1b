(* join: the E24 headline row. Datagen.Paired with inner 100,000 and
   outer 10,000 (selectivity 0.3, Zipf 0.7, label pool inner/16); the
   inner collection sits in the Hash_store with the paper's static
   250-list cache. One untimed warm-up join, then timed
   Join.Engine.join calls. Prefix-tree sharing and the Plist
   intersections run here and nowhere else. *)

open Common

(* --- the inner collection: the on-disk Hash_store with the list cache --- *)

type store = {
  inv : IF.t;  (** reopened through the counting Kv wrapper *)
  reads : kv_counts;  (** that wrapper's counts *)
  path : string;
  setup_s : float;  (** build, reopen and cache attach; median of the repetitions *)
  build_s : float;  (** the Builder's share; median *)
  written : int;  (** put bytes of one build *)
}

let load_store ~name values =
  let once i =
    let path = scratch_path (Printf.sprintf "%s-%d.tch" name i) in
    let wc = kv_counts () and reads = kv_counts () in
    let (inv, build_s), setup_s =
      timed (fun () ->
          let (), build_s =
            timed (fun () ->
                let b = Invfile.Builder.create (wrap_kv wc (Storage.Hash_store.create path)) in
                List.iter (fun v -> ignore (Invfile.Builder.add_value b v)) values;
                IF.close (Invfile.Builder.finish b))
          in
          let inv = IF.open_store (wrap_kv reads (Storage.Hash_store.open_existing path)) in
          Containment.Collection.with_static_cache inv ~budget:250;
          (inv, build_s))
    in
    { inv; reads; path; setup_s; build_s; written = wc.bytes_written }
  in
  let reps =
    List.init setup_reps (fun i ->
        let s = once i in
        if i < setup_reps - 1 then (IF.close s.inv; Sys.remove s.path);
        s)
  in
  let kept = List.nth reps (setup_reps - 1) in
  { kept with
    setup_s = median (List.map (fun s -> s.setup_s) reps);
    build_s = median (List.map (fun s -> s.build_s) reps) }

(* A second, unwrapped handle on the same file with the static cache:
   the oracles run on it, so they neither count nor warm the measured
   handle. *)
let oracle_handle s =
  let inv = IF.open_store (Storage.Hash_store.open_existing s.path) in
  Containment.Collection.with_static_cache inv ~budget:250;
  inv

(* Counters read around each pass of an in-process workload. *)
type probe = { kv : kv_counts; words : float; majors : int; lookups : int; hits : int }

let probe s =
  let lk = IF.lookup_stats s.inv in
  { kv = kv_snapshot s.reads; words = gc_words (); majors = gc_majors ();
    lookups = Storage.Io_stats.lookups lk; hits = Storage.Io_stats.hits lk }

let probe_diff a b =
  { kv = kv_diff a.kv b.kv; words = a.words -. b.words; majors = a.majors - b.majors;
    lookups = a.lookups - b.lookups; hits = a.hits - b.hits }

(* [plain] and [traced] hold each join's elapsed seconds and counter
   deltas; one join answers [n] outer queries. The storage split comes
   from the untraced joins. *)
let store_metrics r s ~input ~n ~plain ~traced =
  let m = metric r in
  let per l f = sum (List.map (fun (_, p) -> f p) l) /. float_of_int (n * List.length l) in
  let gets p = float_of_int p.kv.gets and read p = float_of_int p.kv.bytes_read in
  m "minor_words_per_query" (per plain (fun p -> p.words));
  m "top_heap_mb" (top_heap_mb ());
  m "store_bytes_per_input_byte" (float_of_int (Unix.stat s.path).Unix.st_size /. input);
  m "storage.kv_gets_per_query" (per plain gets);
  m "storage.kv_get_ms_per_query" (per plain (fun p -> float_of_int p.kv.get_ns /. 1e6));
  m "storage.bytes_read_per_query" (per plain read);
  m "storage.bytes_written_per_input_byte" (float_of_int s.written /. input);
  m "invfile.lookups_per_query" (per plain (fun p -> float_of_int p.lookups));
  let lookups = sum (List.map (fun (_, p) -> float_of_int p.lookups) plain) in
  let hits = sum (List.map (fun (_, p) -> float_of_int p.hits) plain) in
  m "invfile.cache_hit_ratio" (ratio hits lookups);
  say "invfile.cache_hit_ratio base: %.0f hits / %.0f lookups" hits lookups;
  m "invfile.build_s" s.build_s;
  m "gc.major_collections_per_query" (per plain (fun p -> float_of_int p.majors));
  if traced <> [] then begin
    let mean l = sum (List.map fst l) /. float_of_int (List.length l) in
    m "obs.trace_overhead_pct" (100. *. (mean traced -. mean plain) /. mean plain);
    m "obs.traced_kv_gets_per_query" (per traced gets);
    m "obs.traced_bytes_read_per_query" (per traced read);
    m "obs.traced_minor_words_per_query" (per traced (fun p -> p.words));
    say "reconcile: per query, untraced vs traced: kv gets %.2f vs %.2f, bytes read \
         %.0f vs %.0f, minor words %.0f vs %.0f"
      (per plain gets) (per traced gets) (per plain read) (per traced read)
      (per plain (fun p -> p.words)) (per traced (fun p -> p.words))
  end


let inner_n = 100_000
let outer_n = 10_000

type pass = {
  elapsed : float;
  counts : probe;
  stats : Join.Engine.stats;
  phases : (string * float) list;  (** traced only: phase span seconds *)
}

let run ~seed ~seconds ~trace =
  let r = result () in
  let inner, outers, input =
    in_child (fun () ->
        let w =
          Datagen.Paired.make ~seed:67
            ~pool:(Datagen.Label_pool.create (inner_n / 16))
            ~label_dist:(Datagen.Synthetic.Zipfian 0.7) ~selectivity:0.3 ~inner:inner_n
            ~outer:outer_n ()
        in
        let inner = w.Datagen.Paired.inner in
        ( inner,
          Array.to_list
            (shuffle seed (Array.of_list (Datagen.Workload.values w.Datagen.Paired.outer))),
          float_of_int (literal_bytes inner) ))
  in
  let s = load_store ~name:"join" inner in
  (* the naive per-query loop; never timed *)
  let expected =
    in_child (fun () ->
        let pairs = Join.Engine.naive (oracle_handle s) outers in
        Array.of_list (Join.Engine.group ~outer:outer_n pairs))
  in
  let req = ref 0 in
  let one_pass ~traced =
    let p0 = probe s in
    let res, elapsed, phases =
      if not traced then
        let res, elapsed = timed (fun () -> Join.Engine.join s.inv outers) in
        (res, elapsed, [])
      else begin
        incr req;
        let req = !req in
        let tr = Obs.Trace.create ~id:req "join" in
        let res, elapsed =
          record_span ~req ~parent:"bench" "join.Engine.join" (fun () ->
              timed (fun () -> Join.Engine.join ~trace:tr s.inv outers))
        in
        let root = Obs.Trace.finish tr in
        add_tree ~req ~parent:"join.Engine.join" root;
        let phase n =
          (n, sum (List.map (fun sp -> sp.Obs.Trace.duration_s) (find_spans (named n) root)))
        in
        (res, elapsed, [ phase "build-tree"; phase "intersect"; phase "verify" ])
      end
    in
    let counts = probe_diff (probe s) p0 in
    List.iteri
      (fun i ids ->
        gate r (ids = expected.(i)) ~what:(fun () ->
            Printf.sprintf "outer query %d: %d ids, naive %d" i (List.length ids)
              (List.length expected.(i))))
      (Join.Engine.group ~outer:outer_n res.Join.Engine.pairs);
    { elapsed; counts; stats = res.Join.Engine.stats; phases }
  in
  ignore (one_pass ~traced:false);
  let plain = ref [] and traced = ref [] in
  let t0 = now_ns () in
  while
    List.length !plain < 3 || (trace && !traced = []) || since_s t0 < float_of_int seconds
  do
    plain := one_pass ~traced:false :: !plain;
    if trace then traced := one_pass ~traced:true :: !traced
  done;
  let plain = !plain and traced = !traced in
  (* a join call is a window *)
  let call_s = lower_quartile (List.map (fun p -> p.elapsed) plain) in
  let st = (List.hd plain).stats in
  let m = metric r in
  say "join: inner %d (%.0f literal bytes), outer %d, %d pairs; %d timed joins%s" inner_n
    input outer_n st.Join.Engine.pairs (List.length plain)
    (if trace then Printf.sprintf ", %d traced" (List.length traced) else "");
  say "timed passes (s): %s"
    (String.concat " " (List.rev_map (fun p -> Printf.sprintf "%.3f" p.elapsed) plain));
  say "join_pairs_per_s = %.6g 1/s (every join yields the same pairs: queries_per_s x %.4f)"
    (float_of_int st.Join.Engine.pairs /. call_s)
    (float_of_int st.Join.Engine.pairs /. float_of_int outer_n);
  m "setup_s" s.setup_s;
  m "queries_per_s" (float_of_int outer_n /. call_s);
  (* every outer query of a call is answered when the call returns, so
     a call's p50 and p90 are both its elapsed time *)
  m "query_p50_ms" (1000. *. call_s);
  m "query_p90_ms" (1000. *. call_s);
  let pairs l = List.map (fun p -> (p.elapsed, p.counts)) l in
  store_metrics r s ~input ~n:outer_n ~plain:(pairs plain) ~traced:(pairs traced);
  m "join.intersections_recomputed" (float_of_int st.Join.Engine.intersections_recomputed);
  m "join.intersections_shared" (float_of_int st.Join.Engine.intersections_shared);
  m "join.limit_cuts" (float_of_int st.Join.Engine.limit_cuts);
  m "join.fallback" (float_of_int st.Join.Engine.fallback);
  m "join.verify_yield"
    (ratio (float_of_int st.Join.Engine.pairs) (float_of_int st.Join.Engine.candidates_checked));
  say "join.verify_yield base: %d pairs / %d candidates checked" st.Join.Engine.pairs
    st.Join.Engine.candidates_checked;
  if trace then begin
    let phase_ms n =
      1000. *. sum (List.map (fun p -> List.assoc n p.phases) traced)
      /. float_of_int (List.length traced)
    in
    m "join.build_tree_ms" (phase_ms "build-tree");
    m "join.intersect_ms" (phase_ms "intersect");
    m "join.verify_ms" (phase_ms "verify")
  end;
  IF.close s.inv;
  r
