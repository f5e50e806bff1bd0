(* Reference figures for the README: the ppi-clique query set through
   the paper's three plans -- Optimized (profiles, refinement, cost
   order) and Baseline (node attributes, input order) on prebuilt
   indexes, and the SQL plan over V/E tables -- all with the paper's
   1000-hit limit; then the same programs, exhaustive, through the
   in-process Service and through embedded [Gql.run_query], which
   builds both indexes on every call. *)

module Engine = Gql_matcher.Engine
module Rng = Gql_datasets.Rng

let hit_limit = 1000
let per_size = 5
let sql_timeout = 2.0

let run ~seed =
  let env = Ppi_clique.env () in
  let g = env.Ppi_clique.graph in
  let rng = Rng.create seed in
  let queries =
    List.concat
      (List.init per_size (fun r ->
           Array.to_list
             (Ppi_clique.round env rng ~first_id:(r * Array.length Ppi_clique.sizes))))
  in
  let li = Gql_index.Label_index.build g and pi = Gql_index.Profile_index.build ~r:1 g in
  let db = Gql_sqlsim.Graphplan.db_of_graph g in
  let svc = Ppi_clique.create_service env in
  ignore (Ppi_clique.run_query svc Ppi_clique.warmup_query);
  let docs = Ppi_clique.docs env in
  let ms f = Util.ms (snd (Util.time f)) in
  let sql_truncated = ref 0 in
  let rows =
    List.map
      (fun q ->
        let p = Gql_core.Gql.pattern_of_string q.Ppi_clique.q_pattern in
        let engine strategy () =
          ignore
            (Engine.run ~strategy ~limit:hit_limit ~label_index:li ~profile_index:pi p g)
        in
        let opt = ms (engine Engine.optimized) in
        let base = ms (engine Engine.baseline) in
        let sql =
          ms (fun () ->
              let _, complete =
                Gql_sqlsim.Graphplan.count_matches ~limit:hit_limit ~timeout:sql_timeout db p
              in
              if not complete then incr sql_truncated)
        in
        let service = ms (fun () -> ignore (Ppi_clique.run_query svc q.q_text)) in
        let embedded = ms (fun () -> ignore (Gql_core.Gql.run_query ~docs q.q_text)) in
        (Array.length q.q_labels, [| opt; base; sql; service; embedded |]))
      queries
  in
  Gql_exec.Service.shutdown svc;
  let cols = [| "optimized"; "baseline"; "sql"; "service"; "run_query" |] in
  Printf.printf "ppi-clique reference figures, seed %d: mean ms per query\n" seed;
  Printf.printf "%-5s %8s" "size" "queries";
  Array.iter (Printf.printf " %10s") cols;
  print_newline ();
  let line label rs =
    Printf.printf "%-5s %8d" label (List.length rs);
    Array.iteri
      (fun c _ -> Printf.printf " %10.3f" (Util.mean (List.map (fun r -> r.(c)) rs)))
      cols;
    print_newline ()
  in
  Array.iter
    (fun size ->
      line (string_of_int size)
        (List.filter_map (fun (s, r) -> if s = size then Some r else None) rows))
    Ppi_clique.sizes;
  line "all" (List.map snd rows);
  Printf.printf
    "(optimized / baseline / sql: limit %d hits, sql timeout %.0f s, %d sql \
     queries cut by limit or timeout; service / run_query: exhaustive programs)\n"
    hit_limit sql_timeout !sql_truncated
