(** Tests for decision provenance: the metrics registry (histogram
    bucket-edge semantics, reset freshness), the structured event stream
    (sequencing, ambient install, serialization), byte-identical
    same-seed golden streams from `dcir explain` and the coverage
    campaign, the explain narrative on certified / refused / degraded
    programs, and the Polybench-wide invariant that every autopar
    refusal carries a conflict witness. *)

module Obs = Dcir_obs.Obs
module Metrics = Dcir_obs.Metrics
module Events = Dcir_obs.Events
module Json = Dcir_obs.Json
module Pipelines = Dcir_core.Pipelines
module Explain = Dcir_core.Explain
module Budget = Dcir_resilience.Budget
module Polybench = Dcir_workloads.Polybench

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_histogram_edges () =
  Metrics.reset_all ();
  let h = Metrics.Histogram.make "test.hist.edges" ~edges:[| 1.0; 2.0; 5.0 |] in
  List.iter (Metrics.Histogram.observe h) [ 0.5; 1.0; 1.5; 3.0; 7.0 ];
  (* v <= edge lands in that bucket; past the last edge is the overflow
     slot. 0.5 and the boundary value 1.0 both land in bucket 0. *)
  Alcotest.(check (array int))
    "bucket counts (inclusive upper edges + overflow)" [| 2; 1; 1; 1 |]
    (Metrics.Histogram.counts h);
  Alcotest.(check int) "total" 5 (Metrics.Histogram.total h);
  Alcotest.(check (float 1e-9)) "sum" 13.0 (Metrics.Histogram.sum h)

let test_histogram_validation () =
  Alcotest.check_raises "empty edges rejected"
    (Invalid_argument "Metrics.Histogram.make: empty bucket edges")
    (fun () -> ignore (Metrics.Histogram.make "test.hist.bad0" ~edges:[||]));
  Alcotest.check_raises "non-ascending edges rejected"
    (Invalid_argument "Metrics.Histogram.make: edges must ascend strictly")
    (fun () ->
      ignore (Metrics.Histogram.make "test.hist.bad1" ~edges:[| 2.0; 1.0 |]))

let test_obs_reset_fresh () =
  (* [Obs.reset] must restore a fully fresh collector — span state AND
     every kind of metric in the registry. *)
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () ->
      Obs.reset ();
      let g = Metrics.Gauge.make "test.reset.gauge" in
      Metrics.Gauge.set g 7;
      let c = Metrics.Counter.make "test.reset.counter" in
      Metrics.Counter.incr c ~by:3;
      let h = Metrics.Histogram.make "test.reset.hist" ~edges:[| 1.0 |] in
      Metrics.Histogram.observe h 0.5;
      Obs.with_span "stale" (fun () -> ());
      let epoch_before = Obs.epoch_s () in
      Obs.reset ();
      Alcotest.(check int) "no spans survive" 0 (List.length (Obs.roots ()));
      Alcotest.(check int) "gauge zeroed" 0 (Metrics.Gauge.value g);
      Alcotest.(check int) "metrics counter zeroed" 0 (Metrics.Counter.value c);
      Alcotest.(check int) "histogram zeroed" 0 (Metrics.Histogram.total h);
      Alcotest.(check bool) "epoch advanced" true
        (Obs.epoch_s () >= epoch_before))

(* ------------------------------------------------------------------ *)
(* Event stream basics *)

let test_event_stream () =
  let t = Events.create () in
  Events.install t;
  Fun.protect ~finally:Events.clear (fun () ->
      Events.emit ~code:"PHASE" [ ("name", Json.Str "a") ];
      Events.emit ~code:"PHASE" [ ("name", Json.Str "b") ]);
  Events.emit ~code:"PHASE" [ ("name", Json.Str "after clear: dropped") ];
  Alcotest.(check int) "two events recorded" 2 (Events.length t);
  Alcotest.(check (list int))
    "contiguous seqs" [ 0; 1 ]
    (List.map (fun (e : Events.event) -> e.Events.ev_seq) (Events.events t));
  List.iter
    (fun (e : Events.event) ->
      Alcotest.(check bool)
        (e.Events.ev_code ^ " in catalogue")
        true
        (Events.is_known e.Events.ev_code))
    (Events.events t);
  match Events.to_json t with
  | Json.Obj (("schema", Json.Str "dcir-events/1") :: _) -> ()
  | j -> Alcotest.failf "bad schema header: %s" (Json.to_string j)

(* ------------------------------------------------------------------ *)
(* Explain narratives *)

let contains (haystack : string) (needle : string) : bool =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let map_and_scan_src =
  {|
void kernel(int n, double A[64], double B[64]) {
  for (int i = 0; i < n; i++) {
    B[i] = A[i] * 2.0 + 1.0;
  }
  for (int i = 1; i < n; i++) {
    A[i] = A[i] + A[i - 1];
  }
}
|}

let explain_fixture ?limits ?(run = false) () =
  Explain.explain ?limits ~run Pipelines.Dcir ~src:map_and_scan_src
    ~entry:"kernel"
    ~args:(fun () ->
      [
        Pipelines.AInt 64;
        Pipelines.AFloatArr (Array.make 64 1.0, [| 64 |]);
        Pipelines.AFloatArr (Array.make 64 0.0, [| 64 |]);
      ])
    ()

let test_explain_certified_and_refused () =
  let x = explain_fixture ~run:true () in
  let evs = Explain.events x in
  Alcotest.(check int)
    "one loop certified" 1
    (List.length (Events.with_code evs "APAR-CERT"));
  (match Events.with_code evs "APAR-REFUSE" with
  | [ e ] ->
      let w = Events.str_field e "witness" in
      Alcotest.(check bool) "refusal carries a witness" true
        (String.length w > 0);
      Alcotest.(check bool) "witness names the conflicting array" true
        (String.length w >= 2 && String.sub w 0 2 = "_A")
  | es -> Alcotest.failf "expected one refusal, got %d" (List.length es));
  let text = Explain.to_string x in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("narrative mentions " ^ needle) true
        (contains text needle))
    [ "[APAR-CERT]"; "[APAR-REFUSE]"; "[TIER-LAND]"; "[EXEC-MODE]"; "summary:" ]

let test_explain_degraded () =
  (* A fuel budget too small for the full O2 pass pipeline forces the
     degradation ladder down; the narrative must name the failed tier
     (stable-coded) and the tier it landed at. *)
  let x =
    explain_fixture ~limits:{ Budget.default with Budget.max_fuel = 10 } ()
  in
  (match x.Explain.ex_report with
  | Some r ->
      Alcotest.(check bool) "landed below the requested tier" true
        (r.Pipelines.res_landed <> r.Pipelines.res_requested)
  | None -> Alcotest.fail "expected a (degraded) artifact, got a failure");
  let text = Explain.to_string x in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("narrative mentions " ^ needle) true
        (contains text needle))
    [ "[TIER-FAIL]"; "E-BUDGET-FUEL"; "requested" ]

let test_explain_deterministic () =
  let a = explain_fixture ~run:true () and b = explain_fixture ~run:true () in
  Alcotest.(check string)
    "same input, byte-identical event stream"
    (Json.to_string (Explain.events_json a))
    (Json.to_string (Explain.events_json b))

(* ------------------------------------------------------------------ *)
(* Golden coverage campaign *)

let test_coverage_golden () =
  let stream () =
    let r = Dcir_fuzz.Coverage.run ~count:6 ~seed:7 () in
    Json.to_string
      (Events.to_json ~header:(Dcir_fuzz.Coverage.events_header r)
         r.Dcir_fuzz.Coverage.cov_events)
  in
  Alcotest.(check string)
    "same seed, byte-identical dcir-events/1 stream" (stream ()) (stream ())

(* ------------------------------------------------------------------ *)
(* Polybench sweep: every refusal is witnessed *)

let test_polybench_witnesses () =
  List.iter
    (fun (w : Dcir_workloads.Workload.t) ->
      let x =
        Explain.explain ~run:false Pipelines.Dcir ~src:w.src ~entry:w.entry
          ~args:(fun () -> [])
          ()
      in
      (match x.Explain.ex_error with
      | Some e -> Alcotest.failf "%s: compile failed: %s" w.name e
      | None -> ());
      let evs = Explain.events x in
      List.iter
        (fun (e : Events.event) ->
          Alcotest.(check bool)
            (w.name ^ ": refusal witnessed")
            true
            (String.trim (Events.str_field e "witness") <> ""))
        (Events.with_code evs "APAR-REFUSE");
      List.iter
        (fun (e : Events.event) ->
          Alcotest.(check bool)
            (w.name ^ ": skip names its breaker state")
            true
            (Events.str_field e "breaker" <> ""))
        (Events.with_code evs "PASS-SKIP");
      List.iter
        (fun (e : Events.event) ->
          Alcotest.(check bool)
            (w.name ^ ": tier landing names both tiers")
            true
            (Events.str_field e "landed" <> ""
            && Events.str_field e "requested" <> ""))
        (Events.with_code evs "TIER-LAND"))
    Polybench.all

let suite =
  ( "events",
    [
      Alcotest.test_case "histogram bucket edges" `Quick test_histogram_edges;
      Alcotest.test_case "histogram validation" `Quick
        test_histogram_validation;
      Alcotest.test_case "Obs.reset restores a fresh collector" `Quick
        test_obs_reset_fresh;
      Alcotest.test_case "event stream basics" `Quick test_event_stream;
      Alcotest.test_case "explain: certified + refused" `Quick
        test_explain_certified_and_refused;
      Alcotest.test_case "explain: degraded tier" `Quick test_explain_degraded;
      Alcotest.test_case "explain: deterministic stream" `Quick
        test_explain_deterministic;
      Alcotest.test_case "coverage: same-seed golden stream" `Quick
        test_coverage_golden;
      Alcotest.test_case "polybench: every refusal witnessed" `Slow
        test_polybench_witnesses;
    ] )
