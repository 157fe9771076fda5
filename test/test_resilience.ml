(** Resource governance: deterministic budgets, the per-pass circuit
    breaker, the graceful-degradation ladder, and the seeded chaos
    campaign. The invariants under test are the resilience contract:
    exhaustion is a structured answer (never a hang), the two
    interpreters trap on exactly the same ceiling, a degraded compile
    still matches the unoptimized reference within floating-point
    tolerance, and a chaos campaign replayed with its seed reproduces its
    decision-event stream byte-for-byte. *)

module Pipelines = Dcir_core.Pipelines
module Budget = Dcir_resilience.Budget
module Breaker = Dcir_resilience.Breaker
module Chaos = Dcir_resilience.Chaos
module Events = Dcir_obs.Events
module Polybench = Dcir_workloads.Polybench
module Workload = Dcir_workloads.Workload
module Oracle = Dcir_fuzz.Oracle
module Json = Dcir_obs.Json

(* ------------------------------------------------------------------ *)
(* Budgets *)

let test_budget_kinds () =
  let limits = { Budget.max_steps = 3; max_fuel = 2; max_allocs = 1 } in
  let b = Budget.create ~limits () in
  Budget.step b;
  Budget.step b;
  Budget.step b;
  (try
     Budget.step b;
     Alcotest.fail "step budget did not trip"
   with Budget.Exhausted (Budget.Steps, 3) -> ());
  (try
     Budget.burn_fuel b;
     Budget.burn_fuel b;
     Budget.burn_fuel b;
     Alcotest.fail "fuel budget did not trip"
   with Budget.Exhausted (Budget.Fuel, 2) -> ());
  try
    Budget.alloc b;
    Budget.alloc b;
    Alcotest.fail "alloc budget did not trip"
  with Budget.Exhausted (Budget.Allocs, 1) -> ()

let test_budget_fork_merge () =
  let limits = { Budget.default with Budget.max_steps = 10 } in
  let b = Budget.create ~limits () in
  Budget.step b;
  let child = Budget.fork b in
  Alcotest.(check int) "fork counts from zero" 0 child.Budget.steps;
  for _ = 1 to 10 do Budget.step child done;
  (* Merging may exceed the ceiling without raising: the ceiling bounds
     each sequential stream, the merge only aggregates for reporting. *)
  Budget.merge_steps ~into:b child;
  Alcotest.(check int) "merged step count" 11 b.Budget.steps

(* ------------------------------------------------------------------ *)
(* Circuit breaker *)

let test_breaker_lifecycle () =
  let b = Breaker.create () in
  let check msg expected = Alcotest.(check string) msg expected (Breaker.state_name b "p") in
  check "starts closed" "closed";
  Alcotest.(check bool) "closed admits" true (Breaker.admits b "p");
  Breaker.record_failure b "p";
  check "opens after trip_after=1 failure" "open";
  Alcotest.(check bool) "open rejects" false (Breaker.admits b "p");
  Breaker.end_round b;
  check "still open after one round" "open";
  Breaker.end_round b;
  check "probation after cooldown_rounds=2" "probation";
  Alcotest.(check bool) "probation admits" true (Breaker.admits b "p");
  Breaker.record_success b "p";
  check "one clean application is not enough" "probation";
  Breaker.record_success b "p";
  check "re-closes after probation_successes=2" "closed"

let test_breaker_probation_failure () =
  let b = Breaker.create () in
  Breaker.record_failure b "p";
  Breaker.end_round b;
  Breaker.end_round b;
  Alcotest.(check string) "probation" "probation" (Breaker.state_name b "p");
  Breaker.record_failure b "p";
  Alcotest.(check string) "probation failure re-opens immediately" "open"
    (Breaker.state_name b "p");
  Alcotest.(check int) "failures accumulate" 2 (Breaker.total_failures b)

(* ------------------------------------------------------------------ *)
(* Budget-exhaustion parity between the two interpreters *)

let tiny_steps = 500

let run_with_step_cap (kind : Pipelines.kind) (w : Workload.t) : exn option =
  let limits = { Budget.default with Budget.max_steps = tiny_steps } in
  let compiled = Pipelines.compile kind ~src:w.Workload.src ~entry:w.Workload.entry in
  match
    Pipelines.run ~budget:(Budget.create ~limits ()) compiled
      ~entry:w.Workload.entry
      (w.Workload.args ())
  with
  | _ -> None
  | exception e -> Some e

let test_exhaustion_parity () =
  (* Both interpreters (MLIR walks the module, SDFG walks the graph) must
     trap with the same structured exception naming the same ceiling. *)
  List.iter
    (fun kind ->
      match run_with_step_cap kind Polybench.gemm with
      | Some (Budget.Exhausted (Budget.Steps, limit)) ->
          Alcotest.(check int)
            (Pipelines.kind_name kind ^ " traps at the configured ceiling")
            tiny_steps limit
      | Some e ->
          Alcotest.fail
            (Pipelines.kind_name kind ^ ": wrong exception "
            ^ Printexc.to_string e)
      | None ->
          Alcotest.fail
            (Pipelines.kind_name kind ^ ": ran to completion under the cap"))
    [ Pipelines.Mlir; Pipelines.Dcir ]

let test_tree_compiled_step_parity () =
  (* The tree walker charges one step per executed op; compiled plans
     charge one per executed closure over the same op sequence. The
     counters must agree exactly, so budget trips are mode-independent. *)
  let w = Polybench.gesummv in
  let compiled =
    Pipelines.compile Pipelines.Mlir ~src:w.Workload.src ~entry:w.Workload.entry
  in
  let steps mode =
    let b = Budget.create () in
    ignore
      (Pipelines.run ~budget:b ~interp_mode:mode compiled
         ~entry:w.Workload.entry
         (w.Workload.args ()));
    b.Budget.steps
  in
  let tree = steps `Tree and comp = steps `Fast in
  Alcotest.(check bool) "executed at all" true (tree > 0);
  Alcotest.(check int) "tree and compiled step counts agree" tree comp

(* ------------------------------------------------------------------ *)
(* Degradation ladder *)

let forced_failure_plans =
  [
    ( "pass crash at the first application",
      {
        Chaos.pl_seed = 0;
        pl_faults = [ Chaos.Pass_crash ];
        crash_at = Some 0;
        corrupt_at = None;
        starved_fuel = None;
        fail_alloc = None;
        pl_checked = false;
        kill_at = None;
        poison = false;
      } );
    ( "fuel starved to zero",
      {
        Chaos.pl_seed = 0;
        pl_faults = [ Chaos.Fuel_starvation ];
        crash_at = None;
        corrupt_at = None;
        starved_fuel = Some 0;
        fail_alloc = None;
        pl_checked = false;
        kill_at = None;
        poison = false;
      } );
  ]

let test_ladder (w : Workload.t) () =
  let reference =
    Pipelines.run
      (Pipelines.CMlir (Dcir_cfront.Polygeist.compile w.Workload.src))
      ~entry:w.Workload.entry
      (w.Workload.args ())
  in
  List.iter
    (fun (what, plan) ->
      Chaos.install plan;
      Fun.protect ~finally:Chaos.clear (fun () ->
          let compiled, report =
            Pipelines.compile_resilient Pipelines.Dcir ~src:w.Workload.src
              ~entry:w.Workload.entry
          in
          Alcotest.(check bool)
            (what ^ ": degradation recorded")
            true
            (report.Pipelines.res_degradations <> []
            && report.Pipelines.res_landed <> Pipelines.O2);
          let r =
            Pipelines.run compiled ~entry:w.Workload.entry
              (w.Workload.args ())
          in
          match Oracle.divergence reference r with
          | None -> ()
          | Some msg ->
              Alcotest.fail
                (what ^ ": degraded artifact diverges from reference: " ^ msg)))
    forced_failure_plans

(* ------------------------------------------------------------------ *)
(* Chaos campaign determinism *)

let test_chaos_determinism () =
  let campaign () = Dcir_fuzz.Chaos_campaign.run ~count:12 ~seed:7 () in
  let a = campaign () and b = campaign () in
  Alcotest.(check bool) "no oracle violations" true
    (Dcir_fuzz.Chaos_campaign.ok a);
  let count code =
    List.length (Events.with_code a.Dcir_fuzz.Chaos_campaign.ch_events code)
  in
  Alcotest.(check int) "one CHAOS-CASE per case" 12 (count "CHAOS-CASE");
  Alcotest.(check int) "one CHAOS-OUTCOME per case" 12 (count "CHAOS-OUTCOME");
  Alcotest.(check string) "same seed, byte-identical stream"
    (Json.to_string (Dcir_fuzz.Chaos_campaign.events_json a))
    (Json.to_string (Dcir_fuzz.Chaos_campaign.events_json b))

let suite =
  ( "resilience",
    [
      Alcotest.test_case "budget kinds trip at their ceilings" `Quick
        test_budget_kinds;
      Alcotest.test_case "budget fork/merge" `Quick test_budget_fork_merge;
      Alcotest.test_case "breaker open -> probation -> close" `Quick
        test_breaker_lifecycle;
      Alcotest.test_case "breaker probation failure re-opens" `Quick
        test_breaker_probation_failure;
      Alcotest.test_case "step exhaustion parity across interpreters" `Quick
        test_exhaustion_parity;
      Alcotest.test_case "tree/compiled step-count parity" `Quick
        test_tree_compiled_step_parity;
      Alcotest.test_case "ladder: gesummv degrades and stays correct" `Quick
        (test_ladder Polybench.gesummv);
      Alcotest.test_case "ladder: trisolv degrades and stays correct" `Quick
        (test_ladder Polybench.trisolv);
      Alcotest.test_case "ladder: jacobi-1d degrades and stays correct" `Quick
        (test_ladder Polybench.jacobi_1d);
      Alcotest.test_case "chaos campaign is deterministic" `Slow
        test_chaos_determinism;
    ] )
