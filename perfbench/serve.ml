(* The server layer, measured in the traced run of live-mixed: an
   in-process server with one worker domain over the live store, and one
   client connection in a closed loop of the same 9-to-1 mix. Queries go
   through the Trace verb, so every reply carries the server-side span
   tree: its root is the execute time, and the client's round trip minus
   it is the server's overhead (wire, connection thread, queue wait,
   batching). The stats verb gives the batch occupancy and the overload
   refusals. Every answer is gated as in the in-process rounds. *)

open Common

type figures = {
  execute_ms : float;  (** mean root span of the server-side trees *)
  overhead_ms : float;  (** mean round trip minus execute *)
  mean_batch : float;
  overloaded : int;
}

(* The number after [key] in the stats verb's text, e.g.
   "batches 12 mean_occupancy 1.00". *)
let stats_field text key =
  let words =
    String.split_on_char '\n' text
    |> List.concat_map (String.split_on_char ' ')
    |> List.filter (( <> ) "")
  in
  let rec go = function
    | k :: v :: rest -> if String.equal k key then float_of_string_opt v else go (v :: rest)
    | _ -> None
  in
  match go words with
  | Some v -> v
  | None -> failwith ("stats verb: no " ^ key)

let ids_of_line s =
  List.filter_map int_of_string_opt (String.split_on_char ' ' s)

(* [rounds] rounds of [queries] with an insert after every [every]th;
   [next] is the id the next inserted record gets, and [want k i] is
   query [i]'s exact answer when [k] records exist. *)
let run r st ~queries ~(feed : Nested.Value.t array) ~first_feed_id ~next ~req ~want ~every ~rounds =
  let cfg =
    { Server.Service.default_config with
      Server.Service.port = 0; domains = 1; stats_interval_s = 0.; writable = true }
  in
  let srv =
    Server.Service.start_with cfg ~open_backend:(fun () ->
        Server.Dispatch.live_backend ~store:st ())
  in
  Fun.protect ~finally:(fun () -> Server.Service.stop srv) @@ fun () ->
  let c = Server.Client.connect ~port:(Server.Service.port srv) () in
  Fun.protect ~finally:(fun () -> Server.Client.close c) @@ fun () ->
  let literals = Array.map Nested.Syntax.to_string queries in
  let exec = ref [] and over = ref [] in
  for _ = 1 to rounds do
    Array.iteri
      (fun i lit ->
        incr req;
        let id = !req and k = !next in
        let res, rt =
          record_span ~req:id ~parent:"bench" "server.Client.trace" (fun () ->
              timed (fun () -> Server.Client.trace c ~trace_id:id lit))
        in
        (match res with
         | Ok payload ->
           let ids, spans = Server.Wire.split_traced payload in
           (match Obs.Trace.of_wire spans with
            | None -> gate r false ~what:(fun () -> "served query: reply without a span tree")
            | Some (_, root) ->
              add_tree ~req:id ~parent:"server.Client.trace" root;
              exec := root.Obs.Trace.duration_s :: !exec;
              over := (rt -. root.Obs.Trace.duration_s) :: !over;
              let ids = ids_of_line ids in
              gate r (ids = want k i) ~what:(fun () ->
                  Printf.sprintf "served query %d with %d records: %d ids, rebuild %d" i k
                    (List.length ids) (List.length (want k i))))
         | Error (_, msg) -> gate r false ~what:(fun () -> "served query refused: " ^ msg));
        if (i + 1) mod every = 0 then begin
          let lit = Nested.Syntax.to_string feed.(k - first_feed_id) in
          (match Server.Client.insert c lit with
           | Ok got ->
             gate r (got = k) ~what:(fun () ->
                 Printf.sprintf "served insert: id %d, expected %d" got k)
           | Error (_, msg) -> gate r false ~what:(fun () -> "served insert refused: " ^ msg));
          incr next
        end)
      literals
  done;
  let text =
    match Server.Client.stats c with
    | Ok t -> t
    | Error (_, msg) -> failwith ("stats verb refused: " ^ msg)
  in
  let mean l = if l = [] then 0. else 1000. *. sum l /. float_of_int (List.length l) in
  say "served: %d traced queries, execute %.3f ms, overhead %.3f ms (means)"
    (List.length !exec) (mean !exec) (mean !over);
  { execute_ms = mean !exec; overhead_ms = mean !over;
    mean_batch = stats_field text "mean_occupancy";
    overloaded = int_of_float (stats_field text "overloaded") }
