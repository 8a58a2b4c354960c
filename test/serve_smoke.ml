(* End-to-end smoke for the serve control protocol: spawn the real
   minpower serve loop, interleave job lines with [status] and [metrics]
   control requests on the same connection, and validate that the metrics
   answer is well-formed OpenMetrics (framed by its own "# EOF") whose
   counters track the jobs the session just ran.

   argv.(1) is the minpower binary (the dune rule passes
   %{exe:../bin/minpower.exe}). *)

let minpower = Sys.argv.(1)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("FAIL: " ^ m); exit 1) fmt

let contains ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else scan (i + 1)
  in
  scan 0

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* read the exposition up to its "# EOF" framing marker *)
let read_exposition ic =
  let rec go acc =
    match input_line ic with
    | "# EOF" -> List.rev acc
    | line -> go (line :: acc)
    | exception End_of_file -> fail "EOF before the # EOF marker"
  in
  go []

(* structural check: every line is a comment or a `name[{labels}] value`
   sample whose value parses as an OpenMetrics number *)
let validate_exposition lines =
  if lines = [] then fail "empty exposition";
  List.iter
    (fun line ->
      if line = "" then fail "blank line in exposition"
      else if line.[0] = '#' then begin
        if not (starts_with "# HELP " line || starts_with "# TYPE " line) then
          fail "bad comment line %S" line
      end
      else begin
        (match String.rindex_opt line ' ' with
        | None -> fail "sample line without value %S" line
        | Some i -> (
          let value = String.sub line (i + 1) (String.length line - i - 1) in
          match value with
          | "NaN" | "+Inf" | "-Inf" -> ()
          | v when float_of_string_opt v <> None -> ()
          | v -> fail "unparsable sample value %S in %S" v line));
        match line.[0] with
        | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> ()
        | c -> fail "sample name starts with %C in %S" c line
      end)
    lines

let expect_line lines needle =
  if not (List.exists (contains ~needle) lines) then
    fail "exposition is missing %S" needle

let () =
  (* a wedged serve process must not hang the test suite *)
  ignore (Unix.alarm 120);
  (* cloexec: the child must NOT inherit the parent-side pipe ends —
     holding a copy of its own stdin's write end would keep it from ever
     seeing EOF (create_process dup2s the child ends onto 0/1, which
     clears the flag there) *)
  let child_stdin_r, child_stdin_w = Unix.pipe ~cloexec:true () in
  let child_stdout_r, child_stdout_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process minpower
      [| minpower; "serve" |]
      child_stdin_r child_stdout_w Unix.stderr
  in
  Unix.close child_stdin_r;
  Unix.close child_stdout_w;
  let toc = Unix.out_channel_of_descr child_stdin_w in
  let tic = Unix.in_channel_of_descr child_stdout_r in
  let send line =
    output_string toc line;
    output_char toc '\n';
    flush toc
  in
  (* status before any job: a JSON line with zeroed counters *)
  send "status";
  let status0 = input_line tic in
  if not (contains ~needle:"\"status\":\"ok\"" status0) then
    fail "bad status line %S" status0;
  if not (contains ~needle:"\"jobs\":0" status0) then
    fail "fresh session already counts jobs: %S" status0;
  (* one job, then poll the registry mid-session *)
  send "{\"id\":\"first\",\"circuit\":\"s27\",\"optimizer\":\"baseline\"}";
  let row1 = input_line tic in
  if not (contains ~needle:"\"id\":\"first\"" row1) then
    fail "bad result row %S" row1;
  if not (contains ~needle:"\"status\":\"solved\"" row1) then
    fail "s27 baseline did not solve: %S" row1;
  send "metrics";
  let exposition = read_exposition tic in
  validate_exposition exposition;
  expect_line exposition "service_jobs_total 1";
  expect_line exposition "service_solved_total 1";
  expect_line exposition "# TYPE service_latency histogram";
  expect_line exposition "service_latency_count 1";
  expect_line exposition "service_latency_bucket{le=\"+Inf\"} 1";
  (* a second job moves the live counters *)
  send "{\"id\":\"second\",\"circuit\":\"s27\",\"optimizer\":\"baseline\"}";
  let row2 = input_line tic in
  if not (contains ~needle:"\"id\":\"second\"" row2) then
    fail "bad second row %S" row2;
  send "metrics";
  let exposition = read_exposition tic in
  validate_exposition exposition;
  expect_line exposition "service_jobs_total 2";
  expect_line exposition "service_latency_count 2";
  (* unknown control words degrade to a failed row, not a dead session *)
  send "bogus";
  let err_row = input_line tic in
  if not (contains ~needle:"unknown control request" err_row) then
    fail "unknown control word not reported: %S" err_row;
  send "status";
  let status2 = input_line tic in
  if not (contains ~needle:"\"jobs\":2" status2) then
    fail "status does not track jobs: %S" status2;
  (* protocol fuzz: every malformed frame must come back as a failed row
     for that line — never a dead session, never a serve abort *)
  let fuzz_frames =
    [
      "{not json at all";
      "{\"circuit\":123}";
      "{\"circuit\":\"s27\",\"bogus\":1}";
      "{\"circuit\":\"s27\",\"optimizer\":\"no-such-optimizer\"}";
      "{\"nested\":{\"deep\":[1,2,{\"x\":null}]}}";
      "[1,2,3]";
      "{\"circuit\":\"s27\",\"timeout_s\":\"soon\"}";
      String.concat "" (List.init 2000 (fun _ -> "{"));
      "{\"circuit\":\"\\u0000\\u0001\"}";
    ]
  in
  List.iter
    (fun frame ->
      send frame;
      let row = input_line tic in
      if not (contains ~needle:"\"status\":\"failed\"" row) then
        fail "malformed frame %S did not produce a failed row: %S"
          (String.sub frame 0 (min 40 (String.length frame)))
          row)
    fuzz_frames;
  (* a malformed netlist is answered with its located diagnostic, not
     an internal error *)
  let cyc = "serve_smoke_cyc.bench" in
  let oc = open_out cyc in
  output_string oc "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = AND(a, y)\n";
  close_out oc;
  send (Printf.sprintf "{\"id\":\"cyc\",\"circuit\":%S}" cyc);
  let cyc_row = input_line tic in
  Sys.remove cyc;
  if
    not
      (contains ~needle:"serve_smoke_cyc.bench: error[bench.cycle]" cyc_row
      && contains ~needle:"\"status\":\"failed\"" cyc_row)
    || contains ~needle:"internal error" cyc_row
  then fail "cyclic netlist not answered with its diagnostic: %S" cyc_row;
  (* the session survived all of it: a real job still runs *)
  send "{\"id\":\"after-fuzz\",\"circuit\":\"s27\",\"optimizer\":\"baseline\"}";
  let row3 = input_line tic in
  if not (contains ~needle:"\"id\":\"after-fuzz\"" row3) then
    fail "session dead after fuzz: %S" row3;
  if not (contains ~needle:"\"status\":\"solved\"" row3) then
    fail "post-fuzz job did not solve: %S" row3;
  (* EOF ends the session cleanly *)
  close_out toc;
  (match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> fail "serve exited %d" n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> fail "serve killed by signal %d" n);
  close_in_noerr tic;
  print_endline
    "serve smoke: status/metrics control requests answered mid-session, \
     OpenMetrics well-formed, counters track 2 jobs"
