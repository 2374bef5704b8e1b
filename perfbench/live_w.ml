(* live-mixed: the live (LSM) store under a mixed closed loop of reads
   and writes. A Live_store is preloaded with 8,000 skewed-wide Zipf(0.7)
   records (the E20/E25 data). One in-process caller on one domain then
   runs epochs: each epoch opens a fresh copy of the preloaded store and
   runs a fixed 20 rounds on it, a round being the paper's 100 queries
   with an insert of a fresh record after every 9th query (9 queries to 1
   insert). Flush every 1,024 records, no background compaction, no WAL
   fsync, no sockets: sub-millisecond operations through a server would
   measure how fast an idle virtual CPU wakes up, not the program.

   Every epoch starts from the same store and issues the same operations,
   so epochs are interchangeable samples of one piece of work, like the
   join calls of the join workload; a run repeats them for --seconds.

   The traced run also serves the same mix over the wire: an in-process
   server (one worker domain) over the last epoch's store, one client
   connection using the Trace verb for queries and the Insert verb for
   writes, then the stats verb. That is where the server layer's figures
   come from. *)

open Common
module LS = Live.Live_store

let preload_n = 8_000
let flush_every = 1_024
let queries_per_insert = 9

(* 2,000 queries and 220 inserts an epoch. The preload leaves 832
   records in the memtable, so the epoch's 192nd insert seals a segment:
   every epoch runs the WAL, memtable and seal path beside the reads. *)
let rounds_per_epoch = 20
let served_rounds = 5

let synthetic ~seed n =
  List.of_seq
    (Datagen.Synthetic.seq
       (Datagen.Synthetic.make ~seed
          ~params:(Datagen.Synthetic.params_of_shape ~max_depth:16 Datagen.Synthetic.Wide)
          (Datagen.Synthetic.Zipfian 0.7))
       n)

let config c =
  { LS.flush_records = flush_every; max_segments = 8; auto_compact = false; wal_sync = false;
    wrap = (fun _ kv -> wrap_kv c kv) }

let rec dir_bytes path =
  if Sys.is_directory path then
    Array.fold_left (fun acc e -> acc + dir_bytes (Filename.concat path e)) 0 (Sys.readdir path)
  else (Unix.stat path).Unix.st_size

(* A byte-for-byte copy of a closed store's directory, through a fixed
   buffer so the copy adds nothing to the measured heap. *)
let rec copy_dir src dst =
  Unix.mkdir dst 0o755;
  let buf = Bytes.create 65536 in
  Array.iter
    (fun e ->
      let s = Filename.concat src e and d = Filename.concat dst e in
      if Sys.is_directory s then copy_dir s d
      else begin
        let fi = Unix.openfile s [ Unix.O_RDONLY ] 0 in
        let fo = Unix.openfile d [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
        let rec go () =
          let n = Unix.read fi buf 0 (Bytes.length buf) in
          if n > 0 then begin
            ignore (Unix.write fo buf 0 n);
            go ()
          end
        in
        Fun.protect ~finally:(fun () -> Unix.close fi; Unix.close fo) go
      end)
    (Sys.readdir src)

type live = {
  kv : kv_counts;  (** the counting wrapper over every store handle *)
  dir : string;  (** the preloaded store, closed: each epoch opens a copy *)
  segments : int;  (** its sealed segments *)
  setup_s : float;  (** median of the repetitions *)
  written : int;  (** put bytes of one preload *)
}

(* Set-up: create the store and insert the preload, sealing a segment
   every 1,024 records; repeated, median reported, the last one kept. *)
let load values =
  let once i =
    let dir = scratch_path (Printf.sprintf "live-%d" i) in
    let kv = kv_counts () in
    let st, setup_s =
      timed (fun () ->
          let st = LS.create ~config:(config kv) dir in
          List.iter (fun v -> ignore (LS.insert st v)) values;
          st)
    in
    let segments = LS.segment_count st in
    LS.close st;
    { kv; dir; segments; setup_s; written = kv.bytes_written }
  in
  let reps =
    List.init setup_reps (fun i ->
        let l = once i in
        if i < setup_reps - 1 then rm_rf l.dir;
        l)
  in
  { (List.nth reps (setup_reps - 1)) with setup_s = median (List.map (fun l -> l.setup_s) reps) }

type round = {
  elapsed : float;
  kv : kv_counts;
  words : float;
  majors : int;
  q_ms : float array;  (** by query *)
  ins_ms : float list;
  answers : (int * int list) array;  (** by query: records present, ids *)
  inserted : (int * int) list;  (** expected id, returned id *)
  segment_s : float;  (** traced only: segment:* spans *)
  memtable_s : float;  (** traced only *)
  retrieve_s : float;  (** traced only: retrieve spans minus the kv time in them *)
  eval_s : float;  (** traced only: eval self time *)
  eval_bytes : int;  (** traced only *)
}

let run ~seed ~seconds ~trace =
  let r = result () in
  let nq = 100 in
  let inserts_per_round = nq / queries_per_insert in
  let n_feed = inserts_per_round * (rounds_per_epoch + if trace then served_rounds else 0) in
  (* inputs and the oracle: the final answer of every query over a
     from-scratch rebuild of every record an epoch (and the served phase
     after the last one) loads. Records only arrive, with ascending ids,
     so the exact answer of a query issued when [k] records exist is the
     final answer's ids below [k]. *)
  let preload, feed, queries, final, preload_bytes, input =
    in_child (fun () ->
        let preload = synthetic ~seed:31 preload_n in
        let feed = Array.of_list (synthetic ~seed:97 n_feed) in
        let queries =
          let inv = Containment.Collection.of_values preload in
          let qs = shuffle seed (Array.of_list (paper_queries inv)) in
          IF.close inv;
          qs
        in
        let inv = Containment.Collection.of_values (preload @ Array.to_list feed) in
        let final = Array.map (fun q -> (E.query inv q).E.records) queries in
        IF.close inv;
        let preload_bytes = literal_bytes preload in
        (preload, feed, queries, final, preload_bytes,
         preload_bytes + literal_bytes (Array.to_list feed)))
  in
  assert (Array.length queries = nq);
  let l = load preload in
  let next = ref preload_n in
  let expect_at k ids = List.filter (fun id -> id < k) ids in
  let gate_round (rd : round) =
    Array.iteri
      (fun i (k, ids) ->
        let want = expect_at k final.(i) in
        gate r (ids = want) ~what:(fun () ->
            Printf.sprintf "query %d with %d records: %d ids, rebuild %d" i k
              (List.length ids) (List.length want)))
      rd.answers;
    List.iter
      (fun (want, got) ->
        gate r (got = want) ~what:(fun () -> Printf.sprintf "insert: id %d, expected %d" got want))
      rd.inserted
  in
  let req = ref 0 in
  let one_round ~traced st =
    let kv0 = kv_snapshot l.kv and w0 = gc_words () and m0 = gc_majors () in
    let q_ms = Array.make nq 0. and answers = Array.make nq (0, []) in
    let ins_ms = ref [] and inserted = ref [] in
    let seg = ref 0. and mem = ref 0. and retrieve = ref 0. and eval = ref 0. in
    let eval_bytes = ref 0 in
    let t0 = now_ns () in
    Array.iteri
      (fun i q ->
        let ids, dt =
          if not traced then timed (fun () -> LS.query st q)
          else begin
            incr req;
            let req = !req in
            capture := true;
            captured := [];
            let tr = Obs.Trace.create ~id:req "query" in
            let res =
              record_span ~req ~parent:"bench" "live.Live_store.query" (fun () ->
                  timed (fun () -> LS.query ~trace:tr st q))
            in
            capture := false;
            let root = Obs.Trace.finish tr in
            add_tree ~req ~parent:"live.Live_store.query" root;
            let total pred = sum (List.map (fun s -> s.Obs.Trace.duration_s) (find_spans pred root)) in
            seg := !seg +. total (fun s -> String.starts_with ~prefix:"segment:" s.Obs.Trace.name);
            mem := !mem +. total (named "memtable");
            retrieve :=
              !retrieve
              +. sum
                   (List.map
                      (fun (sp : Obs.Trace.span) ->
                        sp.Obs.Trace.duration_s
                        -. captured_within sp.Obs.Trace.start_s sp.Obs.Trace.duration_s)
                      (find_spans (named "retrieve") root));
            let evals = find_spans (named "eval") root in
            eval := !eval +. sum (List.map self_s evals);
            eval_bytes := List.fold_left (fun acc sp -> acc + attr_int sp "bytes_read") !eval_bytes evals;
            res
          end
        in
        q_ms.(i) <- 1000. *. dt;
        answers.(i) <- (!next, ids);
        if (i + 1) mod queries_per_insert = 0 then begin
          let v = feed.(!next - preload_n) in
          let id, dt = timed (fun () -> LS.insert st v) in
          ins_ms := (1000. *. dt) :: !ins_ms;
          inserted := (!next, id) :: !inserted;
          incr next
        end)
      queries;
    let elapsed = since_s t0 in
    let rd =
      { elapsed; kv = kv_diff l.kv kv0; words = gc_words () -. w0; majors = gc_majors () - m0;
        q_ms; ins_ms = !ins_ms; answers; inserted = !inserted; segment_s = !seg;
        memtable_s = !mem; retrieve_s = !retrieve; eval_s = !eval; eval_bytes = !eval_bytes }
    in
    gate_round rd;
    rd
  in
  (* epochs for --seconds (at least 3 timed; a traced run alternates
     timed and traced epochs), each on a fresh copy of the preloaded
     store; the copy and the reopen, which replays the WAL into the
     memtable, are not timed *)
  let epoch_dir = scratch_path "epoch" in
  let flushes st = List.assoc "flushes_total" (LS.totals st) in
  let segments_max = ref l.segments and flushed = ref 0 and epochs = ref 0 in
  let plain = ref [] and traced = ref [] and last = ref None in
  let t0 = now_ns () in
  while
    List.length !plain < 3 || (trace && !traced = []) || since_s t0 < float_of_int seconds
  do
    Option.iter LS.close !last;
    rm_rf epoch_dir;
    copy_dir l.dir epoch_dir;
    let st = LS.open_store ~config:(config l.kv) epoch_dir in
    last := Some st;
    next := preload_n;
    let f0 = flushes st in
    let traced_epoch = trace && List.length !traced < List.length !plain in
    let rounds = ref [] in
    for _ = 1 to rounds_per_epoch do
      rounds := one_round ~traced:traced_epoch st :: !rounds;
      segments_max := max !segments_max (LS.segment_count st)
    done;
    flushed := !flushed + flushes st - f0;
    incr epochs;
    if traced_epoch then traced := List.rev !rounds :: !traced
    else plain := List.rev !rounds :: !plain
  done;
  let st = Option.get !last in
  (* an epoch is a window *)
  let windows = List.rev !plain in
  let plain = List.concat windows and traced = List.concat !traced in
  let served =
    if not trace then None
    else
      Some
        (Serve.run r st ~queries ~feed ~first_feed_id:preload_n ~next ~req
           ~want:(fun k i -> expect_at k final.(i))
           ~every:queries_per_insert ~rounds:served_rounds)
  in
  (* after the run: the store's answers equal the rebuild's *)
  Array.iteri
    (fun i q ->
      let ids = LS.query st q and want = expect_at !next final.(i) in
      gate r (ids = want) ~what:(fun () ->
          Printf.sprintf "query %d after the run: %d ids, rebuild %d" i (List.length ids)
            (List.length want)))
    queries;
  let m = metric r in
  let per l f = sum (List.map f l) /. float_of_int (nq * List.length l) in
  say "live-mixed: %d preloaded records (%d segments); %d epochs of %d rounds of %d queries + \
       %d inserts%s; %d records at the end of an epoch (%d segments)"
    preload_n l.segments !epochs rounds_per_epoch nq inserts_per_round
    (if trace then
       Printf.sprintf " (%d traced, then %d served rounds)" (!epochs - List.length windows)
         served_rounds
     else "")
    (preload_n + (rounds_per_epoch * inserts_per_round)) !segments_max;
  let round_s w = sum (List.map (fun rd -> rd.elapsed) w) /. float_of_int (List.length w) in
  say "timed epochs, mean round (s): %s"
    (String.concat " " (List.map (fun w -> Printf.sprintf "%.4f" (round_s w)) windows));
  m "setup_s" l.setup_s;
  (* an epoch's rate is its queries over its elapsed time, its inserts
     included; p50 and p90 are exact quantiles of its raw samples *)
  m "queries_per_s" (float_of_int nq /. lower_quartile (List.map round_s windows));
  window_quantiles r ~p50:"query_p50_ms" ~p90:"query_p90_ms"
    (List.map (List.concat_map (fun rd -> Array.to_list rd.q_ms)) windows);
  window_quantiles r ~p50:"live.insert_p50_ms" ~p90:"live.insert_p90_ms"
    (List.map (List.concat_map (fun rd -> rd.ins_ms)) windows);
  (* printed, not declared (README.md says why): an epoch's 2,000 queries
     leave 20 beyond its p99, but its 220 inserts only 2, so insert p99 is
     taken over every timed insert of the run *)
  say "query_p99_ms = %.6g ms, ops_per_s = %.6g 1/s, insert_p99_ms = %.6g ms"
    (lower_quartile
       (List.map (fun w -> quantile (List.concat_map (fun rd -> Array.to_list rd.q_ms) w) 0.99)
          windows))
    (float_of_int (nq + inserts_per_round) /. lower_quartile (List.map round_s windows))
    (quantile (List.concat_map (fun rd -> rd.ins_ms) plain) 0.99);
  m "minor_words_per_query" (per plain (fun rd -> rd.words));
  m "top_heap_mb" (top_heap_mb ());
  m "store_bytes_per_input_byte" (float_of_int (dir_bytes epoch_dir) /. float_of_int input);
  let gets rd = float_of_int rd.kv.gets and read rd = float_of_int rd.kv.bytes_read in
  m "storage.kv_gets_per_query" (per plain gets);
  m "storage.kv_get_ms_per_query" (per plain (fun rd -> float_of_int rd.kv.get_ns /. 1e6));
  m "storage.bytes_read_per_query" (per plain read);
  m "storage.bytes_written_per_input_byte"
    (float_of_int l.written /. float_of_int preload_bytes);
  m "gc.major_collections_per_query" (per plain (fun rd -> float_of_int rd.majors));
  m "live.flushes" (float_of_int !flushed /. float_of_int !epochs);
  m "live.compactions" (float_of_int (List.assoc "compactions_total" (LS.totals st)));
  m "live.segments_max" (float_of_int !segments_max);
  m "live.preload_inserts_per_s" (float_of_int preload_n /. l.setup_s);
  if trace then begin
    let per_t f = sum (List.map f traced) /. float_of_int (nq * List.length traced) in
    let mean l = sum (List.map (fun rd -> rd.elapsed) l) /. float_of_int (List.length l) in
    m "live.segment_ms_per_query" (1000. *. per_t (fun rd -> rd.segment_s));
    m "live.memtable_ms_per_query" (1000. *. per_t (fun rd -> rd.memtable_s));
    m "invfile.retrieve_ms_per_query" (1000. *. per_t (fun rd -> rd.retrieve_s));
    m "core.eval_ms_per_query" (1000. *. per_t (fun rd -> rd.eval_s));
    m "core.eval_bytes_read_per_query" (per_t (fun rd -> float_of_int rd.eval_bytes));
    m "obs.trace_overhead_pct" (100. *. (mean traced -. mean plain) /. mean plain);
    m "obs.traced_kv_gets_per_query" (per_t gets);
    m "obs.traced_bytes_read_per_query" (per_t read);
    m "obs.traced_minor_words_per_query" (per_t (fun rd -> rd.words));
    say "reconcile: per query, untraced vs traced: kv gets %.2f vs %.2f, bytes read %.0f vs %.0f, \
         minor words %.0f vs %.0f"
      (per plain gets) (per_t gets) (per plain read) (per_t read)
      (per plain (fun rd -> rd.words)) (per_t (fun rd -> rd.words));
    Option.iter
      (fun (s : Serve.figures) ->
        m "server.execute_ms_per_query" s.Serve.execute_ms;
        m "server.overhead_ms_per_query" s.Serve.overhead_ms;
        m "server.mean_batch" s.Serve.mean_batch;
        m "server.overloaded" (float_of_int s.Serve.overloaded))
      served
  end;
  LS.close st;
  r
