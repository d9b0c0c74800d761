module Io = Krsp_graph.Io
module Instance = Krsp_core.Instance

let to_string ?comment inst =
  let b = Buffer.create 256 in
  (match comment with
  | Some c ->
    String.split_on_char '\n' c
    |> List.iter (fun line -> Buffer.add_string b (Printf.sprintf "# %s\n" line))
  | None -> ());
  Buffer.add_string b (Io.to_edge_list inst.Instance.graph);
  Buffer.add_string b
    (Printf.sprintf "q %d %d %d %d\n" inst.Instance.src inst.Instance.dst inst.Instance.k
       inst.Instance.delay_bound);
  Buffer.contents b

let of_string text =
  let lines = String.split_on_char '\n' text in
  let is_query l = String.length l > 1 && l.[0] = 'q' && l.[1] = ' ' in
  let graph_text =
    String.concat "\n" (List.filter (fun l -> not (is_query l)) lines)
  in
  let graph = Io.of_edge_list graph_text in
  match List.filter is_query lines with
  | [] -> failwith "corpus: missing q <src> <dst> <k> <delay-bound> line"
  | _ :: _ :: _ -> failwith "corpus: more than one q line"
  | [ q ] -> (
    match Scanf.sscanf_opt q "q %d %d %d %d" (fun s t k d -> (s, t, k, d)) with
    | None -> failwith (Printf.sprintf "corpus: malformed query line %S" q)
    | Some (src, dst, k, delay_bound) -> (
      try Instance.create graph ~src ~dst ~k ~delay_bound
      with Invalid_argument msg -> failwith (Printf.sprintf "corpus: %s" msg)))

let save path ?comment inst = Io.write_file path (to_string ?comment inst)
let load path = of_string (Io.read_file path)

(* ---- churn traces (.churn) ------------------------------------------------- *)

let mutation_to_string = function
  | Differential.M_del e -> Printf.sprintf "del:%d" e
  | Differential.M_restore e -> Printf.sprintf "res:%d" e
  | Differential.M_ins { u; v; cost; delay } -> Printf.sprintf "ins:%d:%d:%d:%d" u v cost delay
  | Differential.M_rew { edge; cost; delay } -> Printf.sprintf "rew:%d:%d:%d" edge cost delay

let mutation_of_string tok =
  match String.split_on_char ':' tok with
  | [ "del"; e ] -> Option.map (fun e -> Differential.M_del e) (int_of_string_opt e)
  | [ "res"; e ] -> Option.map (fun e -> Differential.M_restore e) (int_of_string_opt e)
  | [ "ins"; u; v; c; d ] -> (
    match
      (int_of_string_opt u, int_of_string_opt v, int_of_string_opt c, int_of_string_opt d)
    with
    | Some u, Some v, Some cost, Some delay -> Some (Differential.M_ins { u; v; cost; delay })
    | _ -> None)
  | [ "rew"; e; c; d ] -> (
    match (int_of_string_opt e, int_of_string_opt c, int_of_string_opt d) with
    | Some edge, Some cost, Some delay -> Some (Differential.M_rew { edge; cost; delay })
    | _ -> None)
  | _ -> None

let churn_to_string ?comment (graph, trace) =
  let b = Buffer.create 256 in
  (match comment with
  | Some c ->
    String.split_on_char '\n' c
    |> List.iter (fun line -> Buffer.add_string b (Printf.sprintf "# %s\n" line))
  | None -> ());
  Buffer.add_string b (Io.to_edge_list graph);
  List.iter
    (fun op ->
      match op with
      | Differential.C_solve { src; dst; k; delay_bound } ->
        Buffer.add_string b (Printf.sprintf "s %d %d %d %d\n" src dst k delay_bound)
      | Differential.C_batch ms ->
        Buffer.add_string b
          (Printf.sprintf "m %s\n" (String.concat " " (List.map mutation_to_string ms)))
      | Differential.C_renumber -> Buffer.add_string b "r\n")
    trace;
  Buffer.contents b

let churn_of_string text =
  let lines = String.split_on_char '\n' text in
  let is_trace l =
    l = "r" || (String.length l > 1 && (l.[0] = 's' || l.[0] = 'm') && l.[1] = ' ')
  in
  let graph =
    Io.of_edge_list (String.concat "\n" (List.filter (fun l -> not (is_trace l)) lines))
  in
  let trace =
    List.filter_map
      (fun line ->
        if not (is_trace line) then None
        else if line = "r" then Some Differential.C_renumber
        else if line.[0] = 's' then (
          match
            Scanf.sscanf_opt line "s %d %d %d %d" (fun src dst k delay_bound ->
                Differential.C_solve { src; dst; k; delay_bound })
          with
          | Some op -> Some op
          | None -> failwith (Printf.sprintf "corpus: malformed solve line %S" line))
        else
          let toks =
            String.sub line 2 (String.length line - 2)
            |> String.split_on_char ' '
            |> List.filter (fun s -> s <> "")
          in
          let ms =
            List.map
              (fun tok ->
                match mutation_of_string tok with
                | Some m -> m
                | None -> failwith (Printf.sprintf "corpus: malformed mutation %S" tok))
              toks
          in
          Some (Differential.C_batch ms))
      lines
  in
  if trace = [] then failwith "corpus: churn trace has no s/m/r lines";
  (graph, trace)

let save_churn path ?comment t = Io.write_file path (churn_to_string ?comment t)
let load_churn path = churn_of_string (Io.read_file path)

let load_churn_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".churn")
    |> List.sort compare
    |> List.map (fun f ->
           let path = Filename.concat dir f in
           match load_churn path with
           | t -> (f, t)
           | exception Failure msg -> failwith (Printf.sprintf "%s: %s" path msg))

let load_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".krsp")
    |> List.sort compare
    |> List.map (fun f ->
           let path = Filename.concat dir f in
           match load path with
           | inst -> (f, inst)
           | exception Failure msg -> failwith (Printf.sprintf "%s: %s" path msg))
