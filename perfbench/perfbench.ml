(* Entry point: perfbench --workload NAME --seed N --seconds S --trace 0|1
   [--gqlsh PATH]. Prints diagnostics on stderr and, as the last line of
   stdout, one JSON object with correct / attempted / failed / metrics.
   perfbench --reference [--seed N] prints the README's reference
   figures instead.

   --trace 0 measures the end-to-end metrics for S seconds. --trace 1
   runs the same loop for S/2 seconds (its own figures feed a few layer
   metrics), then replays its operations in process with every layer
   timed for S/4 seconds, and the same operations again untimed to
   measure the tracing overhead. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and gqlsh = ref "_build/default/bin/gqlsh.exe" in
  let reference = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME ppi-clique | chem-served | chem-write");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured run length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--gqlsh", Arg.Set_string gqlsh, "PATH the gqlsh binary to serve with");
      ("--reference", Arg.Set reference, " print the README's reference figures and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !reference then begin
    Reference.run ~seed:!seed;
    exit 0
  end;
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seconds must be > 0 and --trace 0 or 1";
    exit 2
  end;
  let traced = !trace = 1 in
  let loop_seconds = if traced then !seconds /. 2.0 else !seconds in
  let gqlsh = !gqlsh and seed = !seed in
  let run, replay =
    match !workload with
    | "ppi-clique" ->
      let env, run = Ppi_clique.run ~seed ~seconds:loop_seconds in
      (run, Ppi_clique.replay env run.Util.ops)
    | "chem-served" ->
      let env, run = Chem_served.run ~gqlsh ~seed ~seconds:loop_seconds in
      (run, Chem_served.replay env run.Util.ops)
    | "chem-write" ->
      let env, run = Chem_write.run ~gqlsh ~seed ~seconds:loop_seconds in
      (run, Chem_write.replay env run.Util.ops)
    | w ->
      prerr_endline ("perfbench: unknown workload " ^ w);
      exit 2
  in
  let metrics =
    if not traced then run.Util.e2e
    else begin
      let deadline = Util.now () +. (!seconds /. 4.0) in
      let tr, n, gauges, overhead = Trace.with_overhead ~deadline replay in
      let replayed = List.filteri (fun i _ -> i < n) run.ops in
      let writes = List.length (List.filter (fun (k, _) -> k = Util.Write) replayed) in
      Trace.metrics tr ~ops:n ~writes ~selections:(n - writes)
        ~extra:((("trace.overhead_pct", overhead) :: gauges) @ run.gauges)
    end
  in
  print_endline
    (Util.result_line ~attempted:run.Util.attempted ~failed:run.Util.failed metrics)
