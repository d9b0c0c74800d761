(* The benchmark's command line.

     main.exe --workload <solve-k2|rsp-k1|serve-churn> --seed <n> --seconds <s>
              --trace <0|1> [--chrome <file>]

   Prints human-readable lines, then the effective configuration as one
   JSON object, {"config": {...}}, then as its last line the result as one
   JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 they are the per-layer
   ones of the traced run, whose spans go to --chrome when given.
   "correct" is false when an answer or a run check failed. Exits 2 on bad
   usage or a pinned setting in the environment, without a result. *)

module W = Krspbench.Workloads

(* Settings that would change what is measured; the benchmark pins them
   itself (width-1 pool, serving cap) or leaves them at the defaults. *)
let pinned_env =
  [ "KRSP_DOMAINS"; "KRSP_SHARDS"; "KRSP_RSP_ORACLE"; "KRSP_NUMERIC"; "KRSP_TRACE"; "KRSP_CERTIFY" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload <solve-k2|rsp-k1|serve-churn> --seed <n> --seconds <s> --trace \
     <0|1> [--chrome <file>]";
  exit 2

let json_number x = if Float.is_integer x then Printf.sprintf "%.1f" x else Printf.sprintf "%.17g" x

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let workload = match W.of_name (get "workload") with Some w -> w | None -> usage () in
  let seed, seconds, trace =
    match
      (int_of_string_opt (get "seed"), float_of_string_opt (get "seconds"), get "trace")
    with
    | Some seed, Some seconds, ("0" | "1" as t) when seconds > 0. -> (seed, seconds, t = "1")
    | _ -> usage ()
  in
  (match List.filter (fun v -> Sys.getenv_opt v <> None) pinned_env with
  | [] -> ()
  | set ->
    Printf.eprintf "refusing to run: %s set; the benchmark pins these settings itself\n"
      (String.concat ", " set);
    exit 2);
  let config =
    [ ("oracle_default", Krsp_rsp.Oracle.to_string (Krsp_rsp.Oracle.default ()));
      ("numeric_tier", Krsp_numeric.Numeric.tier_to_string (Krsp_numeric.Numeric.default ()));
      ("pool_width", string_of_int W.pool_width);
      ("max_iterations", string_of_int W.max_iterations);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version)
    ]
  in
  let o = W.run workload ~seed ~seconds ~trace ~chrome:(List.assoc_opt "chrome" opts) in
  let r = o.W.report in
  Printf.printf "workload %s seed %d seconds %g trace %b\n" (W.name workload) seed seconds trace;
  List.iter (fun n -> Printf.printf "note %s\n" n) r.notes;
  List.iter
    (fun (m : W.metric) ->
      Printf.printf "metric %-34s %14.6f %-6s samples=%d%s\n" m.name m.value m.unit_ m.samples
        (if m.better = "" then "" else " better=" ^ m.better))
    r.metrics;
  Printf.printf "{\"config\": {%s}}\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) config));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    o.W.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (m : W.metric) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_)
          r.metrics))
