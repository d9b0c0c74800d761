(* The benchmark's own tests: seeded inputs, the percentile rule, and a
   tiny run of every workload answering correctly. *)

module I = Krspbench.Inputs
module P = Krspbench.Pct
module W = Krspbench.Workloads

let take n next = List.init n (fun _ -> next ())

let query_text (q : I.query) =
  Printf.sprintf "%s%d %d %d %d" q.edges q.src q.dst q.k q.delay_bound

(* the text the program sees, for the first [n] inputs of a seed *)
let inputs = function
  | W.Solve_k2 -> fun seed -> List.map query_text (take 24 (I.solve_k2 ~seed))
  | W.Rsp_k1 -> fun seed -> List.map query_text (take 12 (I.rsp_k1 ~seed))
  | W.Serve_churn ->
    fun seed ->
      let sv = I.serve_churn ~seed in
      let warmup = Array.to_list (I.warmup_lines sv) in
      (sv.topology :: warmup) @ List.map I.line_of_op (take 5000 sv.next)

let test_seeded w () =
  let gen = inputs w in
  Alcotest.(check bool) "same seed, same bytes" true (gen 7 = gen 7);
  Alcotest.(check bool) "other seed, other bytes" false (gen 7 = gen 8)

let test_serve_events () =
  (* about 2% of lines are topology events, each opened and later closed *)
  let sv = I.serve_churn ~seed:3 in
  let ops = take 20_000 sv.next in
  let events = List.length (List.filter (function I.Solve _ -> false | _ -> true) ops) in
  Alcotest.(check bool) (Printf.sprintf "%d events in 20000 lines" events) true
    (events > 200 && events < 600)

let test_percentile () =
  let ramp n = P.of_list (List.init n (fun i -> float_of_int (n - i))) in
  Alcotest.(check bool) "p99 needs 1000 samples" true (P.percentile 99. (ramp 999) = None);
  (match P.percentile 99. (ramp 1000) with
  | Some r ->
    Alcotest.(check int) "samples reported" 1000 r.P.samples;
    Alcotest.(check (float 0.)) "nearest rank" 990. r.P.value
  | None -> Alcotest.fail "p99 of 1000 samples is supported");
  Alcotest.(check bool) "p50 needs 20 samples" true (P.percentile 50. (ramp 19) = None);
  match P.percentile 50. (ramp 20) with
  | Some r -> Alcotest.(check (float 0.)) "median rank" 10. r.P.value
  | None -> Alcotest.fail "p50 of 20 samples is supported"

let value name (r : W.report) =
  (List.find (fun (m : W.metric) -> m.name = name) r.metrics).value

let test_tiny_run w ~trace () =
  let o = W.run w ~seed:5 ~seconds:0.2 ~trace ~chrome:None in
  let r = o.W.report in
  Alcotest.(check bool) "attempted some" true (r.attempted > 0);
  Alcotest.(check int) "no failed answers" 0 r.failed;
  if trace then Alcotest.(check bool) "traced run checks pass" true o.W.correct
  else Alcotest.(check (float 0.)) "success_frac" 1. (value "success_frac" r)

let () =
  let per_workload f =
    List.map (fun (w, name) -> Alcotest.test_case name `Quick (f w)) W.names
  in
  Alcotest.run "krspbench"
    [ ("inputs", per_workload test_seeded @ [ Alcotest.test_case "serve events" `Quick test_serve_events ]);
      ("percentile", [ Alcotest.test_case "ten beyond" `Quick test_percentile ]);
      ("tiny run", per_workload (test_tiny_run ~trace:false));
      ("tiny traced run", per_workload (test_tiny_run ~trace:true))
    ]
