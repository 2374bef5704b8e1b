(* Shared plumbing for the workloads: the monotonic clock, exact
   quantiles, a counting Kv wrapper, bench-side spans, and metric
   collection. Everything here sits outside the library: the benchmark
   only calls the library's public functions and wraps the store handles
   it passes in. *)

module IF = Invfile.Inverted_file
module E = Containment.Engine

(* --- clock --- *)

let now_ns () = Monotonic_clock.now ()
let since_s t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, since_s t0)

(* --- statistics --- *)

(* Linear interpolation between closest ranks over the raw samples (the
   "inclusive" method of Python's statistics.quantiles): exact, never
   snapped to histogram bucket edges. *)
let quantile samples q =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median samples = quantile samples 0.5

(* A timing the benchmark measures once per window (a pass of the
   queries, a join call, a block of rounds, a set-up) is reported as its
   lower quartile over the run's windows. Other tenants of a shared host
   only ever slow a window down, and they do so for seconds to minutes at
   a time, so the figure moves only when more than three quarters of the
   run's windows are slowed; a median moves when half of them are. *)
let lower_quartile samples = quantile samples 0.25
let sum = List.fold_left ( +. ) 0.
let ratio a b = if b = 0. then 0. else a /. b

(* --- the seed --- *)

(* The collections and query sets come from the generator seeds the
   repository's experiments use (queries 271, paired 67, synthetic 31
   and 97), so every run measures the same work; --seed fixes the order the
   operations are issued in. Deriving the data itself from --seed made
   the per-seed cost differ by more than any bound could absorb (see
   README.md). *)
let shuffle seed a =
  let a = Array.copy a in
  let rng = Random.State.make [| seed; 0x6e73 |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The paper's 100 queries (50 positive, 50 negative) over a
   collection, with the query seed the experiments use. *)
let paper_queries inv =
  Datagen.Workload.values (Datagen.Workload.benchmark_queries ~seed:271 ~count:100 inv)

(* --- work kept out of the measured process --- *)

(* [in_child f] runs [f] in a forked child and returns its result,
   marshalled back through a pipe. Data generation and the oracles run
   this way, so their allocation never reaches the measured process's
   GC counters or its peak heap ([top_heap_mb] covers set-up and the
   timed passes only). Must be called before any domain is spawned. *)
let in_child (f : unit -> 'a) : 'a =
  let rd, wr = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    Marshal.to_channel oc (r : ('a, string) result) [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r =
      Fun.protect
        ~finally:(fun () ->
          close_in_noerr ic;
          ignore (Unix.waitpid [] pid))
        (fun () -> (Marshal.from_channel ic : ('a, string) result))
    in
    (match r with Ok v -> v | Error e -> failwith ("in a child process: " ^ e))

(* --- scratch files inside the checkout --- *)

let out_dir = ".perfbench"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_p path =
  List.iter
    (fun d -> try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    [ out_dir; path ]

let scratch = Filename.concat out_dir (Printf.sprintf "tmp-%d" (Unix.getpid ()))
let scratch_path name = Filename.concat scratch name

(* The literal size of the records a workload loads: the denominator of
   every bytes-per-input-byte ratio. *)
let literal_bytes values =
  List.fold_left
    (fun acc v -> acc + String.length (Nested.Syntax.to_string v))
    0 values

(* --- Kv wrapper: storage-layer counts and times --- *)

type kv_counts = {
  mutable gets : int;
  mutable get_ns : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
}

let kv_counts () = { gets = 0; get_ns = 0; bytes_read = 0; bytes_written = 0 }
let kv_snapshot c = { c with gets = c.gets } (* a copy: the fields are mutable *)

let kv_diff a b =
  { gets = a.gets - b.gets; get_ns = a.get_ns - b.get_ns;
    bytes_read = a.bytes_read - b.bytes_read;
    bytes_written = a.bytes_written - b.bytes_written }

(* When [capture] is set, every get's wall-clock interval is kept so a
   traced query can subtract the kv time inside one of its spans (spans
   carry Unix.gettimeofday timestamps). *)
let capture = ref false
let captured : (float * float) list ref = ref []

let wrap_kv c (kv : Storage.Kv.t) =
  {
    kv with
    Storage.Kv.get =
      (fun k ->
        let wall = if !capture then Unix.gettimeofday () else 0. in
        let t0 = now_ns () in
        let r = kv.Storage.Kv.get k in
        let dt = Int64.to_int (Int64.sub (now_ns ()) t0) in
        c.gets <- c.gets + 1;
        c.get_ns <- c.get_ns + dt;
        Option.iter (fun v -> c.bytes_read <- c.bytes_read + String.length v) r;
        if !capture then captured := (wall, wall +. (float_of_int dt /. 1e9)) :: !captured;
        r);
    put =
      (fun k v ->
        c.bytes_written <- c.bytes_written + String.length k + String.length v;
        kv.Storage.Kv.put k v);
  }

(* kv time (s) of the captured gets falling inside [start, start + dur] *)
let captured_within start dur =
  List.fold_left
    (fun acc (a, b) -> if a >= start && b <= start +. dur +. 1e-6 then acc +. (b -. a) else acc)
    0. !captured

(* --- bench-side spans --- *)

(* Kept in memory and written out at exit; every span of one request
   carries the request's id, and library span trees returned through
   [?trace] are flattened in under the same id. *)
type span = { req : int; name : string; parent : string; start : float; dur_s : float }

let spans : span list ref = ref []

let record_span ~req ~parent name f =
  let start = Unix.gettimeofday () in
  let r, dur_s = timed f in
  spans := { req; name; parent; start; dur_s } :: !spans;
  r

let rec add_tree ~req ~parent (s : Obs.Trace.span) =
  spans :=
    { req; name = s.Obs.Trace.name; parent; start = s.Obs.Trace.start_s;
      dur_s = s.Obs.Trace.duration_s }
    :: !spans;
  List.iter (add_tree ~req ~parent:s.Obs.Trace.name) s.Obs.Trace.children

let write_spans path =
  if !spans <> [] then begin
    let oc = open_out path in
    output_string oc "req\tparent\tname\tstart_s\tduration_ms\n";
    List.iter
      (fun s ->
        Printf.fprintf oc "%d\t%s\t%s\t%.6f\t%.4f\n" s.req s.parent s.name s.start
          (1000. *. s.dur_s))
      (List.rev !spans);
    close_out oc
  end

(* Helpers over finished library span trees. *)
let rec find_spans pred (s : Obs.Trace.span) =
  (if pred s then [ s ] else [])
  @ List.concat_map (find_spans pred) s.Obs.Trace.children

let named n (s : Obs.Trace.span) = String.equal s.Obs.Trace.name n

let attr_int (s : Obs.Trace.span) k =
  match List.assoc_opt k s.Obs.Trace.attrs with
  | Some v -> (try int_of_string v with Failure _ -> 0)
  | None -> 0

let self_s (s : Obs.Trace.span) =
  s.Obs.Trace.duration_s
  -. List.fold_left (fun acc c -> acc +. c.Obs.Trace.duration_s) 0. s.Obs.Trace.children

(* --- results --- *)

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float) list;  (* reversed *)
}

let result () = { attempted = 0; failed = 0; metrics = [] }
let metric r name v = r.metrics <- (name, v) :: r.metrics

(* The p50 and p90 of each window's latency samples (at least ten lie
   beyond p90), each reported as its lower quartile over the windows. *)
let window_quantiles r ~p50 ~p90 windows =
  metric r p50 (lower_quartile (List.map (fun w -> quantile w 0.50) windows));
  metric r p90 (lower_quartile (List.map (fun w -> quantile w 0.90) windows))

(* Human-readable lines go to stdout ahead of the final JSON line. *)
let say fmt = Printf.printf (fmt ^^ "\n%!")

(* One answer-gate verdict: counts the operation, and a mismatch as a
   failure with a one-line description (built only on a mismatch). *)
let gate r ok ~what =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    if r.failed <= 5 then say "GATE FAILED: %s" (what ())
  end

let gc_words () = (Gc.quick_stat ()).Gc.minor_words
let gc_majors () = (Gc.quick_stat ()).Gc.major_collections
let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* --- set-up --- *)

(* Set-up is repeated and its median reported (set-up time is a gated
   metric, so one slow repetition must not decide it). *)
let setup_reps = 3
