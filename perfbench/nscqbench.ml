(* The nscq benchmark.

     nscqbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload, checks every answer against its oracle, prints one
   human-readable line per metric, and ends with one JSON line:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
   per_layer list; the names and units are read from that file so the
   program and the file cannot drift apart. See README.md. *)

open Common

let workloads =
  [
    ("join", Join_w.run);
    ("live-mixed", Live_w.run);
  ]

(* The per-layer metrics (by name, or by layer with a trailing dot) a
   workload does not measure; they read 0 there. Every other declared
   metric must be produced. *)
let not_measured = function
  | "join" -> [ "core."; "live."; "server."; "invfile.retrieve_ms_per_query" ]
  | _ -> [ "join."; "invfile.lookups_per_query"; "invfile.cache_hit_ratio"; "invfile.build_s" ]

let skipped workload name =
  List.exists
    (fun p ->
      String.equal p name
      || (String.ends_with ~suffix:"." p && String.starts_with ~prefix:p name))
    (not_measured workload)

let declared key =
  let ic = open_in_bin "BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let module J = Textformats.Json in
  let field k j =
    match J.member k j with
    | Some (J.String s) -> s
    | _ -> failwith ("BENCHMARK.json: metric without " ^ k)
  in
  match J.member key (J.of_string text) with
  | Some (J.Array l) -> List.map (fun j -> (field "name" j, field "unit" j)) l
  | _ -> failwith ("BENCHMARK.json: no " ^ key ^ " list")

let number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith (Printf.sprintf "non-finite metric value %g" v)

let main ~workload ~seed ~seconds ~trace =
  let run =
    match List.assoc_opt workload workloads with
    | Some f -> f
    | None -> failwith ("unknown workload " ^ workload)
  in
  let decl = declared (if trace then "per_layer" else "end_to_end") in
  mkdir_p scratch;
  let r =
    Fun.protect ~finally:(fun () -> rm_rf scratch) (fun () -> run ~seed ~seconds ~trace)
  in
  write_spans
    (Filename.concat out_dir
       (Printf.sprintf "spans-%s-seed%d-trace%d.tsv" workload seed (Bool.to_int trace)));
  let value (name, unit) =
    match List.assoc_opt name r.metrics with
    | Some v ->
      say "metric %s = %s %s" name (number v) unit;
      (name, unit, v)
    | None when trace && skipped workload name ->
      say "metric %s = 0 %s (not measured on %s)" name unit workload;
      (name, unit, 0.)
    | None -> failwith ("workload did not produce metric " ^ name)
  in
  let values = List.map value decl in
  let failed_ratio = ratio (float_of_int r.failed) (float_of_int r.attempted) in
  say "failed_ops_ratio = %s ratio (%d of %d operations refused, errored or wrong)"
    (number failed_ratio) r.failed r.attempted;
  let correct = r.failed = 0 && r.attempted > 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (number v) unit)
          values));
  if not correct then exit 1

(* The benchmark's own test, too slow (about 25 s) for every run: the
   engine that answers live-mixed's per-run oracle, Engine.query over a
   rebuild, agrees with the Naive_scan full-scan baseline on that
   workload's collection and queries. *)
let check_oracles () =
  let inv = Containment.Collection.of_values (Live_w.synthetic ~seed:31 Live_w.preload_n) in
  let answers config q = (E.query ~config inv q).E.records in
  let naive = { E.default with E.algorithm = E.Naive_scan } in
  let bad =
    List.filter (fun q -> answers E.default q <> answers naive q) (paper_queries inv)
  in
  IF.close inv;
  if bad <> [] then begin
    Printf.eprintf "nscqbench: Engine.default and Naive_scan disagree on %d of 100 queries\n"
      (List.length bad);
    exit 1
  end;
  say "oracles agree: Engine.default = Naive_scan on the 100 live-mixed queries"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let oracles = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N order of the operations (the data is the same for every seed)");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--check-oracles", Arg.Set oracles, " test the per-run oracles against the naive baselines");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "nscqbench";
  if !oracles then check_oracles ()
  else
    try main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    with e ->
      Printf.eprintf "nscqbench: %s\n%!" (Printexc.to_string e);
      exit 2
