(** Smoke check for the machine-readable bench reports ([dune runtest]).

    Reads a JSON report produced by either [dcir bench W --json FILE]
    (schema [dcir-bench/1], or [/2] which adds plan-cache telemetry) or
    [bench/main.exe ... --json FILE] (schema [dcir-bench-report/1]),
    validates that it parses, and that every "pipelines" array it
    contains has a row for each of the five pipelines.
    Decision streams — the events of [dcir-events/1] (from
    [dcir explain --events] or [dcir fuzz --coverage|--chaos --events])
    and the entries of [dcir-serve-journal/1] (from [dcir serve]) — pass
    one check ({!check_stream}): contiguous sequence numbers, codes drawn
    from the closed catalogue, no repeated field names, the fields each
    code must carry non-empty (see {!required_fields}), and, for a chaos
    campaign's stream, the
    chaos oracle: at least four fault kinds exercised and no case ending
    in a wrong answer or an escaped exception. Serving journals are also
    gated on well-formed responses and a self-consistent summary.
    Bench-history envelopes
    ([dcir-bench-history/1], from [bench/history.exe record]) are
    unwrapped and their inner report validated; with
    [--baseline BASE.json [--rtol R]] the report is additionally gated
    against a recorded history snapshot and the run fails on any metric
    regression past the tolerance. Also accepts interpreter micro-benchmark
    reports ([dcir-interp-bench/4], from [bench/interp_bench.exe]) and acts
    as the perf smoke test for the fast engines: every row must be
    bit-identical to the tree walker AND at least as fast — a fast engine
    slower than the tree it replaces is a regression, not noise. The
    report's "parallel" array (serial vs multi-domain execution of
    auto-parallelized kernels) is gated on bit-identity only — never on
    speedup, because the executor's contract is determinism and the CI
    host may have a single core.
    Exits non-zero with a message on any failure. *)

module Json = Dcir_obs.Json

let expected_pipelines = [ "gcc"; "clang"; "mlir"; "dace"; "dcir" ]

let fail fmt =
  Format.kasprintf
    (fun msg ->
      prerr_endline ("validate_report: " ^ msg);
      exit 1)
    fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Collect every value bound to key ["pipelines"] anywhere in the tree. *)
let rec pipelines_arrays (j : Json.t) : Json.t list =
  match j with
  | Json.Obj fields ->
      List.concat_map
        (fun (k, v) ->
          (if k = "pipelines" then [ v ] else []) @ pipelines_arrays v)
        fields
  | Json.List items -> List.concat_map pipelines_arrays items
  | _ -> []

let check_pipelines (arr : Json.t) : unit =
  let rows =
    match Json.to_list arr with
    | Some rows -> rows
    | None -> fail "\"pipelines\" is not an array"
  in
  let names =
    List.filter_map
      (fun row -> Option.bind (Json.member "name" row) Json.to_str)
      rows
  in
  (* Figures with framework-proxy pipelines (fig 8) use their own names;
     only arrays drawn from the standard pipeline set must be complete. *)
  if List.exists (fun p -> List.mem p names) expected_pipelines then
    List.iter
      (fun p ->
        if not (List.mem p names) then
          fail "pipeline %S missing (have: %s)" p (String.concat ", " names))
      expected_pipelines

(* Perf smoke for the fast engines: each row bit-identical to the tree
   walker and no slower than it. *)
let check_interp_bench (j : Json.t) : unit =
  let rows =
    match Option.bind (Json.member "benchmarks" j) Json.to_list with
    | Some [] -> fail "\"benchmarks\" is empty"
    | Some rows -> rows
    | None -> fail "missing or non-array \"benchmarks\""
  in
  List.iter
    (fun row ->
      let str key =
        match Option.bind (Json.member key row) Json.to_str with
        | Some s -> s
        | None -> fail "benchmark row missing %S" key
      in
      let num key =
        match Json.member key row with
        | Some (Json.Float f) -> f
        | Some (Json.Int n) -> float_of_int n
        | _ -> fail "benchmark row missing numeric %S" key
      in
      let label = str "name" ^ "/" ^ str "pipeline" ^ "/" ^ str "engine" in
      (match Json.member "identical" row with
      | Some (Json.Bool true) -> ()
      | _ -> fail "%s: fast engine diverged from the tree walker" label);
      let tree = num "tree_wall_s" and fast = num "fast_wall_s" in
      if not (fast <= tree) then
        fail "%s: fast engine slower than tree baseline (%.4fs vs %.4fs)"
          label fast tree)
    rows

(* Determinism gate for parallel map execution.
   Each row must be bit-identical to its serial run and carry well-formed
   timing fields; wall-clock speedup is deliberately NOT gated. *)
let check_parallel_bench (j : Json.t) : unit =
  let rows =
    match Option.bind (Json.member "parallel" j) Json.to_list with
    | Some [] -> fail "\"parallel\" is empty"
    | Some rows -> rows
    | None -> fail "missing or non-array \"parallel\""
  in
  List.iter
    (fun row ->
      let str key =
        match Option.bind (Json.member key row) Json.to_str with
        | Some s -> s
        | None -> fail "parallel row missing %S" key
      in
      let num key =
        match Json.member key row with
        | Some (Json.Float f) -> f
        | Some (Json.Int n) -> float_of_int n
        | _ -> fail "parallel row missing numeric %S" key
      in
      let label = str "name" ^ "/" ^ str "pipeline" in
      let jobs = num "jobs" in
      if jobs < 1.0 then fail "%s: nonsensical job count %.0f" label jobs;
      ignore (num "serial_wall_s");
      ignore (num "parallel_wall_s");
      match Json.member "identical" row with
      | Some (Json.Bool true) -> ()
      | _ -> fail "%s: parallel execution diverged from serial" label)
    rows

(* Plan-cache telemetry carried by [dcir-bench/2] reports and serving
   journal summaries: all four fields present, integer, non-negative. *)
let check_plan_cache (j : Json.t) : unit =
  let fields =
    match Json.member "plan_cache" j with
    | Some (Json.Obj fields) -> fields
    | _ -> fail "dcir-bench/2 report missing \"plan_cache\" object"
  in
  List.iter
    (fun key ->
      match List.assoc_opt key fields with
      | Some (Json.Int n) when n >= 0 -> ()
      | Some v -> fail "plan_cache.%s is %s, not a count" key (Json.to_string v)
      | None -> fail "plan_cache missing %S" key)
    [ "hits"; "misses"; "evictions"; "size" ]

(* Fields each code must carry non-empty. An unattributable rejection,
   shed, deadline kill or worker incident would make the serving engine's
   isolation story unauditable; an unexplained autopar refusal is a
   provenance bug, not an optimization decision. *)
let required_fields : (string list * string list) list =
  [
    ([ "SRV-REJECT"; "SRV-SHED"; "SRV-DEADLINE" ], [ "tenant"; "reason" ]);
    ( [ "SRV-WORKER-KILL"; "SRV-WORKER-POISON"; "SRV-WORKER-WATCHDOG";
        "SRV-WORKER-CRASH" ],
      [ "id"; "tenant" ] );
    ([ "APAR-REFUSE" ], [ "witness" ]);
  ]

let array_member (key : string) (j : Json.t) : Json.t list =
  match Option.bind (Json.member key j) Json.to_list with
  | Some rows -> rows
  | None -> fail "missing or non-array %S" key

let code_of (row : Json.t) : string option =
  Option.bind (Json.member "code" row) Json.to_str

(* The one check for every decision stream: the events of dcir-events/1
   and the entries of dcir-serve-journal/1. [what] names a row in
   messages. *)
let check_stream ~(what : string) (rows : Json.t list) : unit =
  List.iteri
    (fun i row ->
      (match row with
      | Json.Obj fields ->
          let keys = List.map fst fields in
          if List.length (List.sort_uniq compare keys) <> List.length keys
          then fail "%s %d repeats a field name: %s" what i (Json.to_string row)
      | _ -> fail "%s %d is not an object" what i);
      (match Json.member "seq" row with
      | Some (Json.Int s) when s = i -> ()
      | Some (Json.Int s) -> fail "%s %d has seq %d (not contiguous)" what i s
      | _ -> fail "%s %d missing integer \"seq\"" what i);
      let code =
        match code_of row with
        | Some c -> c
        | None -> fail "%s %d missing \"code\"" what i
      in
      if not (Dcir_obs.Events.is_known code) then
        fail "%s %d has code %S outside the catalogue" what i code;
      List.iter
        (fun (codes, keys) ->
          if List.mem code codes then
            List.iter
              (fun key ->
                match Option.bind (Json.member key row) Json.to_str with
                | Some v when String.trim v <> "" -> ()
                | _ -> fail "%s %d (%s) missing %S" what i code key)
              keys)
        required_fields)
    rows;
  (* The chaos oracle, for streams that record a chaos campaign: the
     campaign exercised the whole fault model, and every injected fault
     was answered by a correct artifact or a structured diagnostic. *)
  let with_code c = List.filter (fun row -> code_of row = Some c) rows in
  match with_code "CHAOS-CASE" with
  | [] -> ()
  | cases ->
      let faults =
        List.sort_uniq compare
          (List.concat_map
             (fun row ->
               match Option.bind (Json.member "faults" row) Json.to_list with
               | Some fs -> List.filter_map Json.to_str fs
               | None -> fail "CHAOS-CASE %s missing \"faults\"" what)
             cases)
      in
      if List.length faults < 4 then
        fail "campaign exercised only %d fault kind(s): %s"
          (List.length faults) (String.concat ", " faults);
      List.iter
        (fun row ->
          match Option.bind (Json.member "outcome" row) Json.to_str with
          | Some ("wrong-answer" | "escaped") ->
              fail "stream records a chaos oracle violation: %s"
                (Json.to_string row)
          | Some _ -> ()
          | None -> fail "CHAOS-OUTCOME %s missing \"outcome\"" what)
        (with_code "CHAOS-OUTCOME")

(* Serving journals ([dcir-serve-journal/1], from [dcir serve]): the
   entry stream passes {!check_stream}; responses must be well-formed and
   the summary's counts recomputable from the journal itself. *)
let check_serve_journal (j : Json.t) : unit =
  let entries = array_member "entries" j in
  check_stream ~what:"entry" entries;
  let responses = array_member "responses" j in
  let statuses =
    List.mapi
      (fun i row ->
        List.iter
          (fun key ->
            match Option.bind (Json.member key row) Json.to_str with
            | Some _ -> ()
            | None -> fail "response %d missing %S" i key)
          [ "id"; "tenant"; "code" ];
        (match Json.member "attempts" row with
        | Some (Json.Int n) when n >= 0 -> ()
        | _ -> fail "response %d missing non-negative \"attempts\"" i);
        match Option.bind (Json.member "status" row) Json.to_str with
        | Some (("ok" | "rejected" | "failed") as s) -> s
        | Some s -> fail "response %d has unknown status %S" i s
        | None -> fail "response %d missing \"status\"" i)
      responses
  in
  let summary =
    match Json.member "summary" j with
    | Some (Json.Obj fields) -> fields
    | _ -> fail "missing or non-object \"summary\""
  in
  let summary_int key =
    match List.assoc_opt key summary with
    | Some (Json.Int n) -> n
    | _ -> fail "summary missing integer %S" key
  in
  let expect key actual =
    let claimed = summary_int key in
    if claimed <> actual then
      fail "summary says %s %d, journal has %d" key claimed actual
  in
  let status_count s = List.length (List.filter (( = ) s) statuses) in
  let code_count c =
    List.length (List.filter (fun row -> code_of row = Some c) entries)
  in
  expect "requests" (List.length responses);
  expect "ok" (status_count "ok");
  expect "rejected" (status_count "rejected");
  expect "failed" (status_count "failed");
  expect "retries" (code_count "SRV-RETRY");
  expect "shed" (code_count "SRV-SHED");
  (match List.assoc_opt "codes" summary with
  | Some (Json.Obj codes) ->
      List.iter
        (fun (c, v) ->
          if v <> Json.Int (code_count c) then
            fail "summary codes say %s %s, entries have %d" c
              (Json.to_string v) (code_count c))
        codes
  | _ -> fail "summary missing \"codes\" object");
  match List.assoc_opt "plan_cache" summary with
  | Some pc -> check_plan_cache (Json.Obj [ ("plan_cache", pc) ])
  | None -> fail "summary missing \"plan_cache\""

(* Decision-event streams ([dcir-events/1]): a [count] that matches the
   stream, and the stream passes {!check_stream}. *)
let check_events (j : Json.t) : unit =
  let events = array_member "events" j in
  (match Json.member "count" j with
  | Some (Json.Int n) when n = List.length events -> ()
  | Some (Json.Int n) ->
      fail "\"count\" says %d, stream has %d event(s)" n (List.length events)
  | _ -> fail "missing integer \"count\"");
  check_stream ~what:"event" events

let check_bench ~(plan_cache : bool) (path : string) (j : Json.t) : unit =
  (match pipelines_arrays j with
  | [] -> fail "no \"pipelines\" arrays found in %s" path
  | arrs -> List.iter check_pipelines arrs);
  if plan_cache then check_plan_cache j

let dispatch (path : string) (j : Json.t) : unit =
  match Json.member "schema" j with
  | Some (Json.Str ("dcir-bench/1" | "dcir-bench-report/1")) ->
      check_bench ~plan_cache:false path j
  | Some (Json.Str "dcir-bench/2") -> check_bench ~plan_cache:true path j
  | Some (Json.Str "dcir-bench-history/1") -> (
      match Json.member "report" j with
      | Some r -> check_bench ~plan_cache:false path r
      | None -> fail "history envelope missing \"report\"")
  | Some (Json.Str "dcir-interp-bench/4") ->
      check_interp_bench j;
      check_parallel_bench j
  | Some (Json.Str "dcir-events/1") -> check_events j
  | Some (Json.Str "dcir-serve-journal/1") -> check_serve_journal j
  | Some s -> fail "unexpected schema %s" (Json.to_string s)
  | None -> fail "missing \"schema\" field"

(* Serving journals record their worker count in the config header; the
   pool's contract is that nothing else may depend on it. Dropping the
   field is the only normalization [--same-serve] applies — every other
   byte must agree. *)
let strip_workers (j : Json.t) : Json.t =
  match j with
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             match (k, v) with
             | "config", Json.Obj cfg ->
                 ("config", Json.Obj (List.remove_assoc "workers" cfg))
             | _ -> (k, v))
           fields)
  | _ -> j

let usage () =
  fail
    "usage: validate_report FILE.json [--baseline BASE.json] [--rtol R] \
     [--same-serve OTHER.json] [--require-code CODE]"

let () =
  let path, opts =
    match Array.to_list Sys.argv with
    | _ :: path :: rest -> (path, rest)
    | _ -> usage ()
  in
  let baseline = ref None
  and rtol = ref 0.10
  and same_serve = ref None
  and require_codes = ref [] in
  let rec parse_opts = function
    | [] -> ()
    | "--baseline" :: base :: rest ->
        baseline := Some base;
        parse_opts rest
    | "--rtol" :: r :: rest ->
        (match float_of_string_opt r with
        | Some f when f >= 0.0 -> rtol := f
        | _ -> fail "bad --rtol %s" r);
        parse_opts rest
    | "--same-serve" :: other :: rest ->
        same_serve := Some other;
        parse_opts rest
    | "--require-code" :: code :: rest ->
        require_codes := code :: !require_codes;
        parse_opts rest
    | _ -> usage ()
  in
  parse_opts opts;
  let parse path =
    let text =
      try read_file path with Sys_error msg -> fail "cannot read: %s" msg
    in
    match Json.parse text with
    | Ok j -> j
    | Error e -> fail "%s does not parse: %s" path e
  in
  let j = parse path in
  dispatch path j;
  (match !baseline with
  | None -> ()
  | Some base -> (
      match
        Report_compare.regressions ~rtol:!rtol ~baseline:(parse base)
          ~report:j ()
      with
      | [] -> ()
      | regs ->
          List.iter (fun m -> prerr_endline ("validate_report: REGRESSION: " ^ m)) regs;
          exit 1));
  (match !same_serve with
  | None -> ()
  | Some other ->
      let oj = parse other in
      List.iter
        (fun (p, doc) ->
          match Json.member "schema" doc with
          | Some (Json.Str "dcir-serve-journal/1") -> ()
          | _ -> fail "--same-serve: %s is not a serve journal" p)
        [ (path, j); (other, oj) ];
      if
        Json.to_string (strip_workers j) <> Json.to_string (strip_workers oj)
      then
        fail
          "--same-serve: %s and %s differ beyond the recorded worker count"
          path other);
  let stream =
    List.concat_map
      (fun key ->
        Option.value ~default:[] (Option.bind (Json.member key j) Json.to_list))
      [ "events"; "entries" ]
  in
  List.iter
    (fun code ->
      if not (List.exists (fun row -> code_of row = Some code) stream) then
        fail "--require-code: no %s in %s" code path)
    !require_codes;
  print_endline ("validate_report: " ^ path ^ " OK")
