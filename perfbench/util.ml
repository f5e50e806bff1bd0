(* Timing, statistics, process and output helpers shared by the
   workloads. *)

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let ms s = s *. 1000.0

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in 0..100. *)
let percentile p xs =
  match xs with
  | [] -> nan
  | _ ->
    let a = sorted xs in
    let n = Array.length a in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 50.0 xs

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* --- blocks ----------------------------------------------------------------- *)

(* A timed loop runs whole blocks, each a fixed number of whole rounds,
   so every block sends the same mix of operations. Whole-run figures
   are taken over blocks of a per-block figure: a burst of load from
   outside the benchmark lifts the blocks it falls in, where it would
   lift a percentile taken over the pooled samples of the whole run.

   [run_blocks ~seconds ~min_blocks ~at_min block] calls [block i] for
   i = 0, 1, ... until [seconds] have passed and at least [min_blocks]
   blocks are done, and calls [at_min ()] once, right after block
   [min_blocks] -- a point every run reaches after the same work. *)
let run_blocks ~seconds ~min_blocks ~at_min block =
  let t_end = now () +. seconds in
  let n = ref 0 in
  while !n < min_blocks || now () < t_end do
    block !n;
    incr n;
    if !n = min_blocks then at_min ()
  done

(* [samples] are (block, value) pairs: [f] of each block's values, then
   the interquartile mean of those over the blocks. Dropping the lowest
   and highest quarter sheds the blocks a burst lifted, as a median
   would; averaging the middle half uses every other block, which a
   median of a handful of blocks does not. *)
let over_blocks f samples =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (b, v) ->
      Hashtbl.replace tbl b (v :: Option.value ~default:[] (Hashtbl.find_opt tbl b)))
    samples;
  let a = sorted (Hashtbl.fold (fun _ vs acc -> f vs :: acc) tbl []) in
  let n = Array.length a in
  mean (Array.to_list (Array.sub a (n / 4) (n - (2 * (n / 4)))))

(* Operations per second of a block from its latencies in ms. *)
let per_second ms = float_of_int (List.length ms) /. (List.fold_left ( +. ) 0.0 ms /. 1000.0)

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
      in
      go ())

(* --- correctness bookkeeping ------------------------------------------ *)

(* Every check failure is reported on stderr and makes the run's
   [correct] false; the run itself continues so it always finishes. *)
let correct = ref true

let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then begin
        correct := false;
        prerr_endline ("perfbench: check failed: " ^ msg)
      end)
    fmt

(* --- result line -------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let result_line ~attempted ~failed metrics =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}"
          (json_escape m.name) (json_number m.value) (json_escape m.unit_))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    !correct attempted failed (String.concat ", " ms)

(* --- one run ------------------------------------------------------------- *)

type kind = Read | Write | View_read

type run = {
  attempted : int;
  failed : int;
  e2e : metric list;  (** every end-to-end metric *)
  gauges : (string * float) list;
      (** per-layer figures the untraced loop measures itself *)
  ops : (kind * string) list;  (** the programs sent, in order *)
}

(* --- child processes ---------------------------------------------------- *)

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)

(* Start [prog args] with its output discarded; returns the pid. *)
let spawn prog args =
  let fd = Lazy.force devnull in
  Unix.create_process prog (Array.of_list (prog :: args)) fd fd Unix.stderr

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, st -> st
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let kill_and_wait pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (waitpid_retry pid)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let copy_file src dst =
  let ic = open_in_bin src in
  let s =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  let oc = open_out_bin dst in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let file_size path = (Unix.stat path).Unix.st_size

(* A per-run scratch directory inside the working tree. *)
let workdir name =
  let root = ".perfbench_work" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let d = Filename.concat root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  rm_rf d;
  Unix.mkdir d 0o755;
  at_exit (fun () ->
      rm_rf d;
      try Unix.rmdir root with Unix.Unix_error _ -> ());
  d
