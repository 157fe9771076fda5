(** Differential tests for the execution engines and the interpreter
    hot-path fixes.

    Each IR has a reference tree walker and one fast engine: the flat
    bytecode VM ({!Dcir_bytecode}) for SDFGs, the closure-compiled
    interpreter ({!Dcir_mlir.Interp} [~mode:Compiled]) for MLIR. The fast
    engines must be {e observably indistinguishable} from the walkers:
    same outputs, same traps at the same point, and bit-identical machine
    metrics — the cost model is the paper's measurement apparatus, so an
    engine that changes cycle counts silently corrupts every figure.
    These tests pin that contract on hand-built SDFGs (malformed ones
    included), on the full fixed-seed fuzz corpus, on a Polybench subset,
    and on multi-function MLIR programs (calls, recursion, hand-built
    trapping modules), alongside the hot-path bug sweep: symbol reads of scalar
    containers must charge a load, float->int casts truncate toward zero
    and trap on NaN/inf in both interpreters, and SDFG construction must
    stay linear. *)

open Dcir_sdfg
open Dcir_symbolic
open Dcir_machine
module Pipelines = Dcir_core.Pipelines
module Metrics = Dcir_machine.Metrics

(* The two SDFG engines, driven directly on a hand-built SDFG. *)
type engine = Tree | Bytecode

let run_engine (engine : engine) ?machine ?jobs (sdfg : Sdfg.t) ~buffers
    ~symbols : Interp.result =
  match engine with
  | Tree -> Interp.run ?machine ?jobs sdfg ~buffers ~symbols ()
  | Bytecode ->
      Dcir_bytecode.Vm.run ?machine ?jobs
        (Dcir_bytecode.Lower.lower sdfg)
        ~buffers ~symbols ()

let mk_tasklet ?(syms = []) name ins outs code =
  {
    Sdfg.tname = name;
    t_inputs = ins;
    t_outputs = outs;
    t_syms = syms;
    code = Sdfg.Native code;
    t_overhead = 0.0;
  }

let memlet ?wcr ?other data subset = { Sdfg.data; subset; wcr; other }

let metrics_equal (a : Metrics.t) (b : Metrics.t) : bool =
  Int64.equal (Int64.bits_of_float a.cycles) (Int64.bits_of_float b.cycles)
  && a.loads = b.loads && a.stores = b.stores
  && a.bytes_loaded = b.bytes_loaded
  && a.bytes_stored = b.bytes_stored
  && a.int_ops = b.int_ops && a.fp_ops = b.fp_ops
  && a.math_calls = b.math_calls && a.branches = b.branches
  && a.heap_allocs = b.heap_allocs
  && a.heap_frees = b.heap_frees
  && a.heap_bytes = b.heap_bytes
  && a.stack_allocs = b.stack_allocs
  && a.l1_misses = b.l1_misses && a.l2_misses = b.l2_misses
  && a.l3_misses = b.l3_misses
  && a.l1_accesses = b.l1_accesses

let check_metrics_equal label (a : Metrics.t) (b : Metrics.t) =
  if not (metrics_equal a b) then
    Alcotest.failf
      "%s: tree and bytecode metrics differ\ntree:\n%a\nbytecode:\n%a"
      label Metrics.pp a Metrics.pp b

let results_identical (a : Pipelines.run_result) (b : Pipelines.run_result) :
    bool =
  (match (a.return_value, b.return_value) with
  | Some x, Some y -> Value.equal x y
  | None, None -> true
  | _ -> false)
  && List.length a.outputs = List.length b.outputs
  && List.for_all2
       (fun (i, x) (j, y) ->
         i = j
         && Array.length x = Array.length y
         && Array.for_all2 Value.equal x y)
       a.outputs b.outputs
  && metrics_equal a.metrics b.metrics

(* ------------------------------------------------------------------ *)
(* Symbol reads of scalar containers charge a load *)

(* One interstate condition reading scalar container [n]; the condition
   evaluation is the only memory access in the whole program, so the load
   counter isolates the sym_env path (a [peek] would leave it at 0). *)
let symenv_sdfg () : Sdfg.t =
  let sdfg = Sdfg.create "symenv" in
  ignore
    (Sdfg.add_container sdfg ~transient:false ~dtype:Sdfg.DInt ~shape:[] "n");
  sdfg.param_order <- [ "n" ];
  ignore (Sdfg.add_state sdfg "init");
  ignore (Sdfg.add_state sdfg "exit");
  Sdfg.add_istate_edge sdfg
    ~cond:(Bexpr.gt (Expr.sym "n") Expr.zero)
    ~src:"init" ~dst:"exit" ();
  sdfg.start_state <- "init";
  sdfg

let run_symenv (engine : engine) : Metrics.t =
  let machine = Machine.create () in
  let n =
    Machine.alloc machine ~storage:Machine.Heap ~elems:1 ~elem_bytes:8
      ~zero_init:(Value.VInt 0)
  in
  Machine.poke n 0 (Value.VInt 5);
  let _ =
    run_engine engine ~machine (symenv_sdfg ()) ~buffers:[ ("n", n, [||]) ]
      ~symbols:[]
  in
  Machine.metrics machine

let test_symenv_scalar_load () =
  let mt = run_symenv Tree in
  Alcotest.(check int) "scalar-container symbol read goes through the cache" 1
    mt.loads;
  Alcotest.(check bool) "load charged cycles" true (mt.cycles > 0.0);
  check_metrics_equal "symenv" mt (run_symenv Bytecode)

(* ------------------------------------------------------------------ *)
(* SDFG construction stays linear in the number of states *)

let test_construction_scale () =
  let n = 10_000 in
  let label i = "s" ^ string_of_int i in
  let t0 = Sys.time () in
  let sdfg = Sdfg.create "big" in
  for i = 0 to n - 1 do
    ignore (Sdfg.add_state sdfg (label i))
  done;
  for i = 0 to n - 2 do
    Sdfg.add_istate_edge sdfg ~src:(label i) ~dst:(label (i + 1)) ()
  done;
  sdfg.start_state <- label 0;
  let dt = Sys.time () -. t0 in
  (* Quadratic append made this minutes; staged construction is
     milliseconds. The bound is loose only to absorb CI noise. *)
  if dt >= 1.0 then
    Alcotest.failf "10k-state construction took %.2fs (expected well under 1s)"
      dt;
  Alcotest.(check int) "all states present" n (List.length (Sdfg.states sdfg));
  Alcotest.(check bool) "find_state hits the last state" true
    (Sdfg.find_state sdfg (label (n - 1)) <> None);
  (* And the whole chain executes identically on both engines. *)
  let run engine =
    let machine = Machine.create () in
    ignore (run_engine engine ~machine sdfg ~buffers:[] ~symbols:[]);
    Machine.metrics machine
  in
  check_metrics_equal "10k-state chain" (run Tree) (run Bytecode)

(* ------------------------------------------------------------------ *)
(* float->int casts: truncation toward zero, trap on NaN/inf *)

let cast_src = "int kernel_cast(double x) {\n  return (int)x;\n}\n"
let cast_kinds = [ Pipelines.Mlir; Pipelines.Dcir ]
let modes : Pipelines.interp_mode list = [ `Tree; `Fast ]

let run_cast kind mode (x : float) : Pipelines.run_result =
  let compiled =
    Pipelines.compile kind ~src:cast_src ~entry:"kernel_cast"
  in
  Pipelines.run ~interp_mode:mode compiled ~entry:"kernel_cast"
    [ Pipelines.AFloat x ]

let test_toint_truncation () =
  List.iter
    (fun (x, expect) ->
      List.iter
        (fun kind ->
          List.iter
            (fun mode ->
              let r = run_cast kind mode x in
              Alcotest.(check bool)
                (Printf.sprintf "(int)%g = %d [%s]" x expect
                   (Pipelines.kind_name kind))
                true
                (r.return_value = Some (Value.VInt expect)))
            modes)
        cast_kinds)
    [ (2.9, 2); (-2.9, -2); (-0.5, 0); (7.0, 7) ]

let trap_message (f : unit -> Pipelines.run_result) : string =
  match f () with
  | _ -> Alcotest.fail "expected a trap, got a result"
  | exception Dcir_sdfg.Interp.Trap msg -> msg
  | exception Dcir_mlir.Interp.Trap msg -> msg

let test_toint_traps () =
  List.iter
    (fun (x, expect_sub) ->
      let msgs =
        List.concat_map
          (fun kind ->
            List.map (fun mode -> trap_message (fun () -> run_cast kind mode x)) modes)
          cast_kinds
      in
      List.iter
        (fun msg ->
          Alcotest.(check bool)
            (Printf.sprintf "trap mentions %S (got %S)" expect_sub msg)
            true
            (Tutil.contains msg expect_sub))
        msgs;
      (* Same wording everywhere: both interpreters, both modes. *)
      List.iter
        (fun msg -> Alcotest.(check string) "trap message uniform" (List.hd msgs) msg)
        msgs)
    [ (Float.nan, "nan"); (Float.infinity, "out of range");
      (Float.neg_infinity, "out of range") ]

(* ------------------------------------------------------------------ *)
(* BMod / BMin / BMax on floats: parity across interpreters and modes *)

(* MLIR reference: a two-argument float function around one arith op. *)
let mlir_fbin (build : Dcir_mlir.Ir.value -> Dcir_mlir.Ir.value -> Dcir_mlir.Ir.op)
    (mode : Dcir_mlir.Interp.mode) (a : float) (b : float) : Value.t =
  let open Dcir_mlir in
  let f =
    Func_d.make_func ~name:"f"
      ~params:[ ("a", Types.F64); ("b", Types.F64) ]
      ~ret:[ Types.F64 ]
      (fun params ->
        let va = List.nth params 0 and vb = List.nth params 1 in
        let o = build va vb in
        [ o; Func_d.return_ [ Ir.result o ] ])
  in
  let m = Ir.new_module () in
  m.funcs <- [ f ];
  let results, _ =
    Interp.run ~mode m ~entry:"f"
      [ Interp.Scalar (Value.VFloat a); Interp.Scalar (Value.VFloat b) ]
  in
  List.hd results

let sdfg_fbin (op : Texpr.binop) (a : float) (b : float) : Value.t =
  let m = Machine.create () in
  Interp.apply_binop m op (Value.VFloat a) (Value.VFloat b)

let fbin_operands =
  [ (7.5, 2.0); (-7.5, 2.0); (7.5, -2.0); (3.0, Float.nan); (Float.nan, 3.0);
    (0.0, -0.0) ]

let test_float_minmax_cross_interp () =
  List.iter
    (fun (texpr_op, arith_op, name) ->
      List.iter
        (fun (a, b) ->
          let s = sdfg_fbin texpr_op a b in
          List.iter
            (fun mode ->
              let v = mlir_fbin arith_op mode a b in
              Alcotest.(check bool)
                (Printf.sprintf "%s(%g, %g) agrees across interpreters" name a b)
                true (Value.equal s v))
            [ Dcir_mlir.Interp.Tree; Dcir_mlir.Interp.Compiled ])
        fbin_operands)
    [ (Texpr.BMin, Dcir_mlir.Arith.minf, "min");
      (Texpr.BMax, Dcir_mlir.Arith.maxf, "max") ]

let test_float_mod_semantics () =
  (* No arith.remf in the dialect subset; BMod floats pin Float.rem
     (truncated division, sign of the dividend) directly. *)
  List.iter
    (fun ((a, b), expect) ->
      Alcotest.(check bool)
        (Printf.sprintf "fmod(%g, %g)" a b)
        true
        (Value.equal (sdfg_fbin Texpr.BMod a b) (Value.VFloat expect)))
    [ ((7.5, 2.0), 1.5); ((-7.5, 2.0), -1.5); ((7.5, -2.0), 1.5) ];
  Alcotest.(check bool) "fmod propagates nan" true
    (Value.equal (sdfg_fbin Texpr.BMod 3.0 Float.nan) (Value.VFloat Float.nan))

(* Tasklet-level: the same ops through whole-SDFG execution, both
   engines. *)
let fbin_sdfg () : Sdfg.t =
  let sdfg = Sdfg.create "fbin" in
  List.iter
    (fun name ->
      ignore
        (Sdfg.add_container sdfg ~transient:false ~dtype:Sdfg.DFloat ~shape:[]
           name))
    [ "a"; "b"; "m"; "lo"; "hi" ];
  sdfg.param_order <- [ "a"; "b"; "m"; "lo"; "hi" ];
  let st = Sdfg.add_state sdfg "s" in
  let g = st.s_graph in
  let a = Sdfg.add_node g (Sdfg.Access "a") in
  let b = Sdfg.add_node g (Sdfg.Access "b") in
  let t =
    Sdfg.add_node g
      (Sdfg.TaskletN
         (mk_tasklet "t" [ "_a"; "_b" ] [ "_m"; "_lo"; "_hi" ]
            [
              ("_m", Texpr.TBin (Texpr.BMod, TIn "_a", TIn "_b"));
              ("_lo", Texpr.TBin (Texpr.BMin, TIn "_a", TIn "_b"));
              ("_hi", Texpr.TBin (Texpr.BMax, TIn "_a", TIn "_b"));
            ]))
  in
  ignore (Sdfg.add_edge g ~dst_conn:"_a" ~memlet:(memlet "a" []) a t);
  ignore (Sdfg.add_edge g ~dst_conn:"_b" ~memlet:(memlet "b" []) b t);
  List.iter
    (fun (conn, name) ->
      let out = Sdfg.add_node g (Sdfg.Access name) in
      ignore (Sdfg.add_edge g ~src_conn:conn ~memlet:(memlet name []) t out))
    [ ("_m", "m"); ("_lo", "lo"); ("_hi", "hi") ];
  sdfg

let test_float_binops_tasklet_parity () =
  let sdfg = fbin_sdfg () in
  List.iter
    (fun (a, b) ->
      let run engine =
        let machine = Machine.create () in
        let scalar v =
          let buf =
            Machine.alloc machine ~storage:Machine.Heap ~elems:1 ~elem_bytes:8
              ~zero_init:(Value.VFloat 0.0)
          in
          Machine.poke buf 0 (Value.VFloat v);
          buf
        in
        let bufs =
          [ ("a", scalar a, [||]); ("b", scalar b, [||]); ("m", scalar 0.0, [||]);
            ("lo", scalar 0.0, [||]); ("hi", scalar 0.0, [||]) ]
        in
        ignore (run_engine engine ~machine sdfg ~buffers:bufs ~symbols:[]);
        let out name =
          let _, buf, _ = List.find (fun (n, _, _) -> n = name) bufs in
          Machine.peek buf 0
        in
        ((out "m", out "lo", out "hi"), Machine.metrics machine)
      in
      let (vt, mt) = run Tree and (vc, mc) = run Bytecode in
      let m1, lo1, hi1 = vt and m2, lo2, hi2 = vc in
      Alcotest.(check bool)
        (Printf.sprintf "tasklet outputs identical for (%g, %g)" a b)
        true
        (Value.equal m1 m2 && Value.equal lo1 lo2 && Value.equal hi1 hi2);
      check_metrics_equal "fbin tasklet" mt mc)
    fbin_operands

(* ------------------------------------------------------------------ *)
(* Two-way differential (tree walker vs fast engine): fuzz corpus,
   Polybench subset, and trap-timing shapes *)

(* One run's observable outcome: the result, or the exception's text —
   paired with the budget spend, which a trap leaves behind as the only
   counter observable through [Pipelines.run]. *)
let run_outcome compiled ~entry args (mode : Pipelines.interp_mode) :
    (Pipelines.run_result, string) result * (int * int) =
  let budget = Dcir_resilience.Budget.create () in
  let r =
    match Pipelines.run ~budget ~interp_mode:mode compiled ~entry args with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  Dcir_resilience.Budget.(r, (budget.steps, budget.allocs))

let check_compiled_differential ~label compiled ~entry args =
  let rt, st = run_outcome compiled ~entry args `Tree in
  let rf, sf = run_outcome compiled ~entry args `Fast in
  let agree =
    st = sf
    &&
    match (rt, rf) with
    | Ok x, Ok y -> results_identical x y
    | Error x, Error y -> String.equal x y
    | _ -> false
  in
  if not agree then
    Alcotest.failf
      "%s: fast engine diverged from the tree walker (outputs, trap, \
       metrics or budget spend)"
      label

let check_differential ~label kind ~src ~entry args =
  check_compiled_differential ~label
    (Pipelines.compile kind ~src ~entry)
    ~entry args

let fuzz_corpus () =
  (* Same corpus as the CI fuzz campaign: seed 42, 100 programs. *)
  List.init 100 (fun i ->
      (i, Dcir_fuzz.Gen.generate (Dcir_fuzz.Rng.derive 42 i)))

let test_fuzz_differential () =
  (* Every case must execute identically — outputs AND machine metrics —
     on the tree walker and the bytecode VM. The SDFG-native pipeline
     runs for every case; the opaque-tasklet pipeline (dace) on every
     tenth. *)
  List.iter
    (fun (i, (case : Dcir_fuzz.Gen.case)) ->
      let args = case.args () in
      check_differential
        ~label:(Printf.sprintf "fuzz case %d (seed %d) dcir" i case.seed)
        Pipelines.Dcir ~src:case.src ~entry:case.entry args;
      if i mod 10 = 0 then
        check_differential
          ~label:(Printf.sprintf "fuzz case %d (seed %d) dace" i case.seed)
          Pipelines.Dace ~src:case.src ~entry:case.entry args)
    (fuzz_corpus ())

let test_mlir_fuzz_differential () =
  (* The MLIR side's two engines on the same corpus: the closure-compiled
     interpreter against the MLIR tree walker, on the mlir pipeline for
     every case and the gcc pipeline on every tenth. *)
  List.iter
    (fun (i, (case : Dcir_fuzz.Gen.case)) ->
      let args = case.args () in
      check_differential
        ~label:(Printf.sprintf "fuzz case %d (seed %d) mlir" i case.seed)
        Pipelines.Mlir ~src:case.src ~entry:case.entry args;
      if i mod 10 = 0 then
        check_differential
          ~label:(Printf.sprintf "fuzz case %d (seed %d) gcc" i case.seed)
          Pipelines.Gcc ~src:case.src ~entry:case.entry args)
    (fuzz_corpus ())

let test_polybench_differential () =
  let open Dcir_workloads in
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun kind ->
          check_differential
            ~label:(w.name ^ " " ^ Pipelines.kind_name kind)
            kind ~src:w.src ~entry:w.entry (w.args ()))
        [ Pipelines.Dcir; Pipelines.Dace ])
    [ Polybench.gesummv; Polybench.trisolv; Polybench.jacobi_1d ]

(* Trap-timing parity on the shapes from test_trapsafe.ml: both engines
   must trap at the same point (or not at all) with the same message and
   budget spend, and agree bit-for-bit when they finish. *)
let test_bytecode_trap_timing () =
  let zero_trip =
    {|
int f(int n, int d) {
  int s = 0;
  for (int i = 0; i < n; i++) { s = s + 100 / d; }
  return s;
}
|}
  in
  List.iter
    (fun (what, args) ->
      check_differential
        ~label:("trap-timing " ^ what)
        Pipelines.Dcir ~src:zero_trip ~entry:"f" args)
    [
      ("zero-trip", [ Pipelines.AInt 0; Pipelines.AInt 0 ]);
      ("nonzero-trip", [ Pipelines.AInt 2; Pipelines.AInt 0 ]);
      ("benign", [ Pipelines.AInt 5; Pipelines.AInt 3 ]);
    ];
  let rem =
    {|
int g(int a, int d) {
  int t = a % d;
  int u = a / d;
  return t + u;
}
|}
  in
  List.iter
    (fun (what, args) ->
      check_differential
        ~label:("trap-timing " ^ what)
        Pipelines.Dcir ~src:rem ~entry:"g" args)
    [
      ("rem-zero", [ Pipelines.AInt 7; Pipelines.AInt 0 ]);
      ("rem-ok", [ Pipelines.AInt 7; Pipelines.AInt 3 ]);
    ]

(* ------------------------------------------------------------------ *)
(* MLIR engines on multi-function programs: calls, live values across
   calls, recursion, and calls inside loops with carried values *)

(* The fuzz corpus is single-function, so calls are covered here. The
   helpers are recursive because the optimizing pipelines inline every
   other call. *)
let call_corpus : (string * string * string * Pipelines.arg list) list =
  let arr n f = Pipelines.AFloatArr (Array.init n f, [| n |]) in
  let pw =
    {|
double pw(double x, int k) {
  double r = 1.0;
  if (k > 0) { r = x * pw(x, k - 1); }
  return r;
}
|}
  in
  [
    ( "helper called twice",
      pw
      ^ {|
double twice(double a[8], int n) {
  double s = 0.0;
  for (int i = 0; i < n; i++) { s = s + a[i]; }
  return pw(s, 3) + pw(a[0], 2);
}
|},
      "twice",
      [ arr 8 (fun i -> float_of_int i +. 0.25); Pipelines.AInt 8 ] );
    ( "value live across a call",
      {|
int tri(int n) {
  int r = 0;
  if (n > 0) { r = tri(n - 1) + n; }
  return r;
}
int live(int n) {
  int a = n * 7;
  int b = tri(n);
  int c = a - b;
  return a * b + c;
}
|},
      "live",
      [ Pipelines.AInt 11 ] );
    ( "self-recursion",
      {|
int fact(int n) {
  int a = n * 2;
  int r = 1;
  if (n > 1) { r = fact(n - 1); }
  return r * a;
}
|},
      "fact",
      [ Pipelines.AInt 16 ] );
    ( "calls inside a loop with a carried value",
      pw
      ^ {|
double loopcall(double a[16], int n) {
  double s = 0.0;
  for (int i = 0; i < n; i++) {
    s = s + pw(a[i], 2);
    a[i] = pw(s, 1);
  }
  return s;
}
|},
      "loopcall",
      [ arr 16 (fun i -> float_of_int (i * i) /. 64.0); Pipelines.AInt 16 ] );
  ]

(* 2^16 * 16!: [fact] doubles its argument into a value live across the
   recursive call. *)
let fact16 = 65536 * 20922789888000

let test_mlir_calls_differential () =
  List.iter
    (fun (what, src, entry, args) ->
      let subjects =
        ("unoptimized", Pipelines.CMlir (Dcir_cfront.Polygeist.compile src))
        :: List.map
             (fun kind ->
               (Pipelines.kind_name kind, Pipelines.compile kind ~src ~entry))
             [ Pipelines.Gcc; Pipelines.Clang; Pipelines.Mlir ]
      in
      List.iter
        (fun (pipeline, compiled) ->
          let label = what ^ " " ^ pipeline in
          check_compiled_differential ~label compiled ~entry args;
          if entry = "fact" then
            List.iter
              (fun mode ->
                let r = Pipelines.run ~interp_mode:mode compiled ~entry args in
                Alcotest.(check bool)
                  (label ^ ": 2^16 * 16!")
                  true
                  (r.return_value = Some (Value.VInt fact16)))
              modes)
        subjects)
    call_corpus

(* ------------------------------------------------------------------ *)
(* MLIR trap parity: the same exception text, metrics and budget steps *)

(* One MLIR engine's outcome on a module: the results or the exception's
   text, plus the machine metrics and budget steps left behind. *)
let mlir_outcome (mode : Dcir_mlir.Interp.mode) (m : Dcir_mlir.Ir.modul)
    ~entry (args : Machine.t -> Dcir_mlir.Interp.rtval list) :
    (Value.t list, string) result * Metrics.t * int =
  let machine = Machine.create () in
  let r =
    match Dcir_mlir.Interp.run ~machine ~mode m ~entry (args machine) with
    | vals, _ -> Ok vals
    | exception e -> Error (Printexc.to_string e)
  in
  ( r,
    Machine.metrics machine,
    (Machine.budget machine).Dcir_resilience.Budget.steps )

(* Both engines agree on [m]; [expect] is a substring of the trap message,
   or [None] when the run must finish. *)
let check_mlir_parity ~label ?expect m ~entry args =
  let rt, mt, st = mlir_outcome Dcir_mlir.Interp.Tree m ~entry args in
  let rc, mc, sc = mlir_outcome Dcir_mlir.Interp.Compiled m ~entry args in
  (match (rt, rc, expect) with
  | Error x, Error y, Some sub ->
      Alcotest.(check string) (label ^ ": same exception") x y;
      Alcotest.(check bool)
        (Printf.sprintf "%s: trap mentions %S (got %S)" label sub x)
        true (Tutil.contains x sub)
  | Ok x, Ok y, None ->
      Alcotest.(check bool) (label ^ ": same results") true
        (List.equal Value.equal x y)
  | _ -> Alcotest.failf "%s: unexpected outcome" label);
  check_metrics_equal label mt mc;
  Alcotest.(check int) (label ^ ": same budget steps") st sc

let mlir_module (fs : Dcir_mlir.Ir.func list) : Dcir_mlir.Ir.modul =
  let m = Dcir_mlir.Ir.new_module () in
  m.funcs <- fs;
  m

let test_mlir_trap_parity () =
  let open Dcir_mlir in
  let int_arg n _ = [ Interp.Scalar (Value.VInt n) ] in
  (* %x is bound only inside the then-branch and read after the if. *)
  let branch_local =
    Func_d.make_func ~name:"u" ~params:[ ("c", Types.I1) ] ~ret:[ Types.I32 ]
      (fun params ->
        let x = Arith.const_int Types.I32 5 in
        let if_ =
          Scf_d.if_ (List.hd params) ~result_tys:[] ~then_ops:[ x ]
            ~else_ops:[]
        in
        let y = Arith.addi (Ir.result x) (Ir.result x) in
        [ if_; y; Func_d.return_ [ Ir.result y ] ])
  in
  let m = mlir_module [ branch_local ] in
  check_mlir_parity ~label:"value bound in the untaken branch"
    ~expect:"unbound SSA value" m ~entry:"u" (int_arg 0);
  check_mlir_parity ~label:"value bound in the taken branch" m ~entry:"u"
    (int_arg 1);
  (* Memrefs where scalars are expected, and the reverse. *)
  let mem_ty = Types.MemRef (Types.F64, [ Types.Static 4; Types.Static 4 ]) in
  let mem_arg machine =
    let buf =
      Machine.alloc machine ~storage:Machine.Heap ~elems:16 ~elem_bytes:8
        ~zero_init:(Value.VFloat 1.5)
    in
    [ Interp.Buf { buf; dims = [| 4; 4 |] }; Interp.Scalar (Value.VInt 2) ]
  in
  let with_mem name build =
    mlir_module
      [
        Func_d.make_func ~name
          ~params:[ ("m", mem_ty); ("k", Types.Index) ]
          ~ret:[ Types.F64 ]
          (fun params ->
            let mr = List.nth params 0 and k = List.nth params 1 in
            let o = build mr k in
            [ o; Func_d.return_ [ Ir.result o ] ]);
      ]
  in
  check_mlir_parity ~label:"memref used as a scalar"
    ~expect:"expected scalar, got memref"
    (with_mem "s" (fun mr _ -> Arith.addf mr mr))
    ~entry:"s" mem_arg;
  check_mlir_parity ~label:"scalar used as a memref"
    ~expect:"expected memref, got scalar"
    (with_mem "l" (fun _ k -> Memref_d.load k [ k; k ]))
    ~entry:"l" mem_arg;
  check_mlir_parity ~label:"rank-2 memref indexed once"
    ~expect:"index count 1 does not match rank 2"
    (with_mem "r" (fun mr k -> Memref_d.load mr [ k ]))
    ~entry:"r" mem_arg;
  check_mlir_parity ~label:"rank-2 load"
    (with_mem "ok" (fun mr k -> Memref_d.load mr [ k; k ]))
    ~entry:"ok" mem_arg;
  (* Recursion: 200 levels finish, 300 exceed the depth limit of 256. *)
  let deep =
    Dcir_cfront.Polygeist.compile
      {|
int deep(int n) {
  int r = 0;
  if (n > 0) { r = deep(n - 1) + 1; }
  return r;
}
|}
  in
  check_mlir_parity ~label:"recursion 200 deep" deep ~entry:"deep"
    (int_arg 200);
  check_mlir_parity ~label:"recursion 300 deep" ~expect:"call depth exceeded"
    deep ~entry:"deep" (int_arg 300)

(* ------------------------------------------------------------------ *)
(* Hand-built SDFGs on both engines: one outcome per engine — the
   argument containers' final contents, the exception text if it raised,
   the machine metrics and the budget steps, all observable after a
   raise because the caller owns the machine and the buffers — compared
   bitwise. *)

(* Argument containers: name, dims ([||] for a scalar), initial values. *)
type arg = string * int array * Value.t array

let ints xs = Array.map (fun x -> Value.VInt x) xs
let floats xs = Array.map (fun x -> Value.VFloat x) xs

let add_args (sdfg : Sdfg.t) (args : arg list) : unit =
  List.iter
    (fun (name, dims, init) ->
      let dtype =
        if Value.is_float init.(0) then Sdfg.DFloat else Sdfg.DInt
      in
      ignore
        (Sdfg.add_container sdfg ~transient:false ~dtype
           ~shape:(List.map Expr.int (Array.to_list dims))
           name))
    args;
  sdfg.param_order <- List.map (fun (n, _, _) -> n) args

type sdfg_outcome =
  (string * Value.t array) list * string option * Metrics.t * int

let run_sdfg (engine : engine) ?jobs (sdfg : Sdfg.t) (args : arg list)
    ~symbols : sdfg_outcome =
  let machine = Machine.create () in
  let buffers =
    List.map
      (fun (name, dims, init) ->
        let buf =
          Machine.alloc machine ~storage:Machine.Heap
            ~elems:(Array.length init) ~elem_bytes:8 ~zero_init:init.(0)
        in
        Array.iteri (Machine.poke buf) init;
        (name, buf, dims))
      args
  in
  let exn =
    match run_engine engine ~machine ?jobs sdfg ~buffers ~symbols with
    | _ -> None
    | exception e -> Some (Printexc.to_string e)
  in
  ( List.map
      (fun (name, (buf : Machine.buffer), _) -> (name, Machine.snapshot buf))
      buffers,
    exn,
    Machine.metrics machine,
    (Machine.budget machine).Dcir_resilience.Budget.steps )

let check_same_outcome label ((ot, et, mt, st) : sdfg_outcome)
    ((ob, eb, mb, sb) : sdfg_outcome) : unit =
  let same_outputs =
    List.for_all2
      (fun (n, x) (m, y) ->
        String.equal n m
        && Array.length x = Array.length y
        && Array.for_all2 Value.equal x y)
      ot ob
  in
  if not same_outputs then Alcotest.failf "%s: outputs differ" label;
  Alcotest.(check (option string)) (label ^ ": same exception") et eb;
  check_metrics_equal label mt mb;
  Alcotest.(check int) (label ^ ": same budget steps") st sb

(* Runs both engines, checks they agree, and returns the walker's
   outcome. *)
let both_engines ?jobs label sdfg args ~symbols : sdfg_outcome =
  let t = run_sdfg Tree ?jobs sdfg args ~symbols in
  check_same_outcome label t (run_sdfg Bytecode ?jobs sdfg args ~symbols);
  t

let expect_output label ((outs, e, _, _) : sdfg_outcome) name
    (want : Value.t array) : unit =
  match e with
  | Some msg -> Alcotest.failf "%s: raised %s" label msg
  | None ->
      let got = List.assoc name outs in
      if not (Array.length got = Array.length want
              && Array.for_all2 Value.equal got want)
      then
        Alcotest.failf "%s: %s = [%s], want [%s]" label name
          (String.concat "; " (Array.to_list (Array.map Value.to_string got)))
          (String.concat "; " (Array.to_list (Array.map Value.to_string want)))

let expect_trap label ((_, e, _, _) : sdfg_outcome) (sub : string) : unit =
  match e with
  | Some msg ->
      if not (Tutil.contains msg sub) then
        Alcotest.failf "%s: exception %S lacks %S" label msg sub
  | None -> Alcotest.failf "%s: expected a trap mentioning %S" label sub

(* A tasklet writing [outs] (connector, expression, container, index
   expressions) through single-element memlets. *)
let add_writer ?(ins = []) (g : Sdfg.graph) name
    (outs : (string * Texpr.t * string * Expr.t list) list) : Sdfg.node =
  let t =
    Sdfg.add_node g
      (Sdfg.TaskletN
         (mk_tasklet name ins
            (List.map (fun (c, _, _, _) -> c) outs)
            (List.map (fun (c, e, _, _) -> (c, e)) outs)))
  in
  List.iter
    (fun (c, _, data, idx) ->
      let acc = Sdfg.add_node g (Sdfg.Access data) in
      ignore
        (Sdfg.add_edge g ~src_conn:c
           ~memlet:(memlet data (Range.of_indices idx))
           t acc))
    outs;
  t

(* ------------------------------------------------------------------ *)
(* Lowering without a plan probe: malformed states *)

(* A cyclic dataflow graph: two tasklets feeding each other through value
   edges. Neither engine can order it; the walker raises from its
   topological sort when it executes the graph. *)
let add_cycle (g : Sdfg.graph) : unit =
  let mk name =
    Sdfg.add_node g
      (Sdfg.TaskletN
         (mk_tasklet name [ "_i" ] [ "_o" ] [ ("_o", Texpr.TIn "_i") ]))
  in
  let x = mk "x" and y = mk "y" in
  ignore (Sdfg.add_edge g ~src_conn:"_o" ~dst_conn:"_i" x y);
  ignore (Sdfg.add_edge g ~src_conn:"_o" ~dst_conn:"_i" y x)

(* [init] -> [work] (three iterations of a += 1, counted by symbol i) ->
   [bad]. [bad] allocates a heap transient on entry, then holds the cycle
   — at the top level, or inside a map of [trips] iterations, optionally
   certified parallel — so the engines must charge the earlier states,
   the transitions and the allocation before raising. [reach = false]
   drops the edge into [bad]: a malformed state that never runs must
   never fail. *)
let malformed_sdfg ?(par = false) ~(in_map : int option) ~(reach : bool) ()
    : Sdfg.t =
  let sdfg = Sdfg.create "malformed" in
  ignore
    (Sdfg.add_container sdfg ~transient:false ~dtype:Sdfg.DFloat ~shape:[] "a");
  let t =
    Sdfg.add_container sdfg ~alloc_in_loop:true ~dtype:Sdfg.DFloat
      ~shape:[ Expr.int 64 ] "t"
  in
  t.alloc_state <- Some "bad";
  sdfg.param_order <- [ "a" ];
  ignore (Sdfg.add_state sdfg "init");
  let work = Sdfg.add_state sdfg "work" in
  let g = work.s_graph in
  let ain = Sdfg.add_node g (Sdfg.Access "a") in
  let aout = Sdfg.add_node g (Sdfg.Access "a") in
  let inc =
    Sdfg.add_node g
      (Sdfg.TaskletN
         (mk_tasklet "inc" [ "_a" ] [ "_o" ]
            [ ("_o", Texpr.TBin (Texpr.BAdd, TIn "_a", TFloat 1.0)) ]))
  in
  ignore (Sdfg.add_edge g ~dst_conn:"_a" ~memlet:(memlet "a" []) ain inc);
  ignore (Sdfg.add_edge g ~src_conn:"_o" ~memlet:(memlet "a" []) inc aout);
  let bad = Sdfg.add_state sdfg "bad" in
  (match in_map with
  | None -> add_cycle bad.s_graph
  | Some trips ->
      let body = Sdfg.new_graph () in
      add_cycle body;
      ignore
        (Sdfg.add_node bad.s_graph
           (Sdfg.MapN
              {
                m_params = [ "j" ];
                m_ranges = [ Range.full (Expr.int trips) ];
                m_body = body;
                m_par =
                  (if par then Some { Sdfg.pc_sym = "j"; pc_classes = [] }
                   else None);
              })));
  Sdfg.add_istate_edge sdfg ~assign:[ ("i", Expr.zero) ] ~src:"init"
    ~dst:"work" ();
  Sdfg.add_istate_edge sdfg
    ~cond:(Bexpr.lt (Expr.sym "i") (Expr.int 2))
    ~assign:[ ("i", Expr.add (Expr.sym "i") Expr.one) ]
    ~src:"work" ~dst:"work" ();
  if reach then
    Sdfg.add_istate_edge sdfg
      ~cond:(Bexpr.ge (Expr.sym "i") (Expr.int 2))
      ~src:"work" ~dst:"bad" ();
  sdfg.start_state <- "init";
  sdfg

let test_malformed_state () =
  List.iter
    (fun (what, par, in_map, reach, expect_raise) ->
      let sdfg = malformed_sdfg ~par ~in_map ~reach () in
      (* Lowering itself must not raise: the failure is deferred to the
         point where the state runs. *)
      ignore (Dcir_bytecode.Lower.lower sdfg);
      let o =
        both_engines what sdfg [ ("a", [||], floats [| 0.0 |]) ] ~symbols:[]
      in
      (* A raise comes from the cycle; a finished run did the work. *)
      if expect_raise then expect_trap what o "cycle"
      else expect_output what o "a" (floats [| 3.0 |]);
      (* The earlier states ran (three loads of a) and, when [bad] was
         entered, its allocation was charged before the raise (on top of
         the argument buffer's). *)
      let _, _, mt, _ = o in
      Alcotest.(check bool) (what ^ ": earlier states charged") true
        (mt.loads >= 3);
      Alcotest.(check int)
        (what ^ ": allocation charged on entry")
        (if reach then 2 else 1)
        mt.heap_allocs)
    [
      ("top-level cycle", false, None, true, true);
      ("cycle in a 3-trip map", false, Some 3, true, true);
      ("cycle in a zero-trip map", false, Some 0, true, false);
      (* A certified map sorts its body before forking, whatever the trip
         count. *)
      ("cycle in a certified map", true, Some 3, true, true);
      ("cycle in a zero-trip certified map", true, Some 0, true, true);
      ("unreachable cyclic state", false, None, false, false);
    ]

(* ------------------------------------------------------------------ *)
(* Slot-resolved symbols and value edges.

   The bytecode lowering interns symbols and value edges into slots; the
   tree walker looks them up by name. These hand-built SDFGs pin the
   corners where the two could part: a symbol shadowing a same-named
   scalar container (bound and unbound), a map parameter that was
   unbound before its map, simultaneous interstate assignments, value
   edges inside parallel chunks, opaque tasklets' symbol arguments and a
   value edge that is never produced. Each case compares the engines
   bitwise — outputs, exception text, every machine metric and the
   budget steps — and also checks the walker's answer. *)

let test_symbol_shadows_scalar () =
  (* [n] is both a scalar container (holding 7) and, when passed in
     [~symbols], a symbol. s0 reads n in a tasklet and an interstate
     condition, then binds n := n + 1; s1 reads the now-bound symbol. *)
  let sdfg = Sdfg.create "shadow" in
  let args = [ ("n", [||], ints [| 7 |]); ("out", [| 2 |], ints [| 0; 0 |]) ] in
  add_args sdfg args;
  let s0 = Sdfg.add_state sdfg "s0" in
  ignore
    (add_writer s0.s_graph "t0"
       [ ("_o", Texpr.TBin (Texpr.BMul, TSym "n", TInt 10), "out",
          [ Expr.int 0 ]) ]);
  let s1 = Sdfg.add_state sdfg "s1" in
  ignore
    (add_writer s1.s_graph "t1" [ ("_o", Texpr.TSym "n", "out", [ Expr.int 1 ]) ]);
  ignore (Sdfg.add_state sdfg "s2");
  Sdfg.add_istate_edge sdfg
    ~cond:(Bexpr.gt (Expr.sym "n") (Expr.int 2))
    ~assign:[ ("n", Expr.add (Expr.sym "n") Expr.one) ]
    ~src:"s0" ~dst:"s1" ();
  Sdfg.add_istate_edge sdfg
    ~cond:(Bexpr.le (Expr.sym "n") (Expr.int 2))
    ~src:"s0" ~dst:"s2" ();
  sdfg.start_state <- "s0";
  let bound = both_engines "n bound" sdfg args ~symbols:[ ("n", 5) ] in
  expect_output "n bound" bound "out" (ints [| 50; 6 |]);
  let unbound = both_engines "n unbound" sdfg args ~symbols:[] in
  (* Unbound: s0's three reads (tasklet, condition, assignment) load the
     container; s1 reads the symbol the edge bound. *)
  expect_output "n unbound" unbound "out" (ints [| 70; 8 |]);
  let _, _, mb, _ = bound and _, _, mu, _ = unbound in
  Alcotest.(check int) "unbound reads load the container" (mb.loads + 3)
    mu.loads

let test_map_param_restore () =
  (* s0 runs a serial map over i writing y[i] = x[i] + i; s1 then reads
     symbol i, which the map must have restored to its state before the
     map: unbound (trap, or the same-named scalar container when one
     exists) or the caller's binding. *)
  let build ~with_container =
    let sdfg = Sdfg.create "restore" in
    let args =
      [ ("x", [| 4 |], ints [| 10; 20; 30; 40 |]);
        ("y", [| 4 |], ints [| 0; 0; 0; 0 |]);
        ("r", [||], ints [| 0 |]) ]
      @ if with_container then [ ("i", [||], ints [| 42 |]) ] else []
    in
    add_args sdfg args;
    let s0 = Sdfg.add_state sdfg "s0" in
    let body = Sdfg.new_graph () in
    let ax = Sdfg.add_node body (Sdfg.Access "x") in
    let t =
      add_writer ~ins:[ "_a" ] body "body"
        [ ("_o", Texpr.TBin (Texpr.BAdd, TIn "_a", TSym "i"), "y",
           [ Expr.sym "i" ]) ]
    in
    ignore
      (Sdfg.add_edge body ~dst_conn:"_a"
         ~memlet:(memlet "x" (Range.of_indices [ Expr.sym "i" ]))
         ax t);
    ignore
      (Sdfg.add_node s0.s_graph
         (Sdfg.MapN
            { m_params = [ "i" ]; m_ranges = [ Range.full (Expr.int 4) ];
              m_body = body; m_par = None }));
    let s1 = Sdfg.add_state sdfg "s1" in
    ignore (add_writer s1.s_graph "after" [ ("_o", Texpr.TSym "i", "r", []) ]);
    Sdfg.add_istate_edge sdfg ~src:"s0" ~dst:"s1" ();
    sdfg.start_state <- "s0";
    (sdfg, args)
  in
  let sdfg, args = build ~with_container:false in
  let o = both_engines "unbound before the map" sdfg args ~symbols:[] in
  expect_trap "unbound before the map" o
    "tasklet references unbound symbol 'i'";
  let o = both_engines "bound before the map" sdfg args ~symbols:[ ("i", 9) ] in
  expect_output "bound before the map" o "y" (ints [| 10; 21; 32; 43 |]);
  expect_output "bound before the map" o "r" (ints [| 9 |]);
  let sdfg, args = build ~with_container:true in
  let o = both_engines "container after the map" sdfg args ~symbols:[] in
  expect_output "container after the map" o "y" (ints [| 10; 21; 32; 43 |]);
  expect_output "container after the map" o "r" (ints [| 42 |])

let test_interstate_swap () =
  (* init -> loop (5 trips of f, g := f + g, f) -> done; every right-hand
     side reads the pre-assignment values, including those the same edge
     reassigns. *)
  let sdfg = Sdfg.create "swap" in
  let args = [ ("out", [| 3 |], ints [| 0; 0; 0 |]) ] in
  add_args sdfg args;
  List.iter (fun l -> ignore (Sdfg.add_state sdfg l)) [ "init"; "loop" ];
  let fin = Sdfg.add_state sdfg "done" in
  ignore
    (add_writer fin.s_graph "w"
       [ ("_i", Texpr.TSym "i", "out", [ Expr.int 0 ]);
         ("_f", Texpr.TSym "f", "out", [ Expr.int 1 ]);
         ("_g", Texpr.TSym "g", "out", [ Expr.int 2 ]) ]);
  Sdfg.add_istate_edge sdfg
    ~assign:[ ("i", Expr.zero); ("f", Expr.sym "g"); ("g", Expr.sym "f") ]
    ~src:"init" ~dst:"loop" ();
  Sdfg.add_istate_edge sdfg
    ~cond:(Bexpr.lt (Expr.sym "i") (Expr.int 5))
    ~assign:
      [ ("i", Expr.add (Expr.sym "i") Expr.one);
        ("f", Expr.add (Expr.sym "f") (Expr.sym "g"));
        ("g", Expr.sym "f") ]
    ~src:"loop" ~dst:"loop" ();
  Sdfg.add_istate_edge sdfg
    ~cond:(Bexpr.ge (Expr.sym "i") (Expr.int 5))
    ~src:"loop" ~dst:"done" ();
  sdfg.start_state <- "init";
  (* f, g start swapped from (0, 1) to (1, 0); five Fibonacci steps. *)
  let o = both_engines "swap" sdfg args ~symbols:[ ("f", 0); ("g", 1) ] in
  expect_output "swap" o "out" (ints [| 5; 8; 5 |])

let test_par_value_edge () =
  (* A certified map whose body passes a value edge between two tasklets:
     y[i] = x[i] * 2 + i, run serially and on two domains. *)
  let sdfg = Sdfg.create "parvalue" in
  let n = 16 in
  let args =
    [ ("x", [| n |], floats (Array.init n (fun k -> float_of_int k +. 0.5)));
      ("y", [| n |], floats (Array.make n 0.0)) ]
  in
  add_args sdfg args;
  let s = Sdfg.add_state sdfg "s" in
  let body = Sdfg.new_graph () in
  let ax = Sdfg.add_node body (Sdfg.Access "x") in
  let t1 =
    Sdfg.add_node body
      (Sdfg.TaskletN
         (mk_tasklet "dbl" [ "_a" ] [ "_o" ]
            [ ("_o", Texpr.TBin (Texpr.BMul, TIn "_a", TFloat 2.0)) ]))
  in
  let t2 =
    add_writer ~ins:[ "_v" ] body "add"
      [ ("_w", Texpr.TBin (Texpr.BAdd, TIn "_v", TSym "i"), "y",
         [ Expr.sym "i" ]) ]
  in
  let at = memlet "x" (Range.of_indices [ Expr.sym "i" ]) in
  ignore (Sdfg.add_edge body ~dst_conn:"_a" ~memlet:at ax t1);
  ignore (Sdfg.add_edge body ~src_conn:"_o" ~dst_conn:"_v" t1 t2);
  ignore
    (Sdfg.add_node s.s_graph
       (Sdfg.MapN
          { m_params = [ "i" ]; m_ranges = [ Range.full (Expr.int n) ];
            m_body = body;
            m_par =
              Some
                { Sdfg.pc_sym = "i";
                  pc_classes =
                    [ ("x", Sdfg.ParReadOnly); ("y", Sdfg.ParDisjoint) ] } }));
  let want =
    floats (Array.init n (fun k -> ((float_of_int k +. 0.5) *. 2.0) +. float_of_int k))
  in
  let j1 = both_engines ~jobs:1 "par value edge, jobs 1" sdfg args ~symbols:[] in
  expect_output "par value edge, jobs 1" j1 "y" want;
  let j2 = both_engines ~jobs:2 "par value edge, jobs 2" sdfg args ~symbols:[] in
  check_same_outcome "par value edge, jobs 1 vs 2" j1 j2

(* An opaque tasklet computing _o = _x + (double)s from its symbol
   argument s and input connector _x. *)
let opaque_add_sym name sym : Sdfg.tasklet =
  let open Dcir_mlir in
  let f =
    Func_d.make_func ~name:("op_" ^ name)
      ~params:[ ("s", Types.Index); ("_x", Types.F64) ]
      ~ret:[ Types.F64 ]
      (fun params ->
        let vs = List.nth params 0 and vx = List.nth params 1 in
        let c = Arith.sitofp vs Types.F64 in
        let r = Arith.addf vx (Ir.result c) in
        [ c; r; Func_d.return_ [ Ir.result r ] ])
  in
  {
    Sdfg.tname = name;
    t_inputs = [ "_x" ];
    t_outputs = [ "_o" ];
    t_syms = [ sym ];
    code = Sdfg.Opaque f;
    t_overhead = 3.0;
  }

let test_opaque_loop_symbol () =
  (* A serial map over i whose opaque body reads i as a symbol argument,
     then (when [after]) an opaque tasklet in the next state reading i
     again — unbound there, since the map restored it. *)
  let build ~after =
    let sdfg = Sdfg.create "opaque" in
    let args =
      [ ("x", [| 4 |], floats [| 1.0; 2.0; 3.0; 4.0 |]);
        ("y", [| 4 |], floats [| 0.0; 0.0; 0.0; 0.0 |]);
        ("z", [||], floats [| 0.0 |]) ]
    in
    add_args sdfg args;
    let s0 = Sdfg.add_state sdfg "s0" in
    let body = Sdfg.new_graph () in
    let ax = Sdfg.add_node body (Sdfg.Access "x") in
    let t = Sdfg.add_node body (Sdfg.TaskletN (opaque_add_sym "inmap" "i")) in
    let ay = Sdfg.add_node body (Sdfg.Access "y") in
    let at = Range.of_indices [ Expr.sym "i" ] in
    ignore (Sdfg.add_edge body ~dst_conn:"_x" ~memlet:(memlet "x" at) ax t);
    ignore (Sdfg.add_edge body ~src_conn:"_o" ~memlet:(memlet "y" at) t ay);
    ignore
      (Sdfg.add_node s0.s_graph
         (Sdfg.MapN
            { m_params = [ "i" ]; m_ranges = [ Range.full (Expr.int 4) ];
              m_body = body; m_par = None }));
    if after then begin
      let s1 = Sdfg.add_state sdfg "s1" in
      let g = s1.s_graph in
      let ax = Sdfg.add_node g (Sdfg.Access "x") in
      let t = Sdfg.add_node g (Sdfg.TaskletN (opaque_add_sym "after" "i")) in
      let az = Sdfg.add_node g (Sdfg.Access "z") in
      ignore
        (Sdfg.add_edge g ~dst_conn:"_x"
           ~memlet:(memlet "x" (Range.of_indices [ Expr.int 0 ]))
           ax t);
      ignore (Sdfg.add_edge g ~src_conn:"_o" ~memlet:(memlet "z" []) t az);
      Sdfg.add_istate_edge sdfg ~src:"s0" ~dst:"s1" ()
    end;
    sdfg.start_state <- "s0";
    (sdfg, args)
  in
  let sdfg, args = build ~after:false in
  let o = both_engines "opaque in map" sdfg args ~symbols:[] in
  expect_output "opaque in map" o "y" (floats [| 1.0; 3.0; 5.0; 7.0 |]);
  let sdfg, args = build ~after:true in
  let o = both_engines "opaque after map" sdfg args ~symbols:[] in
  expect_trap "opaque after map" o
    "opaque tasklet 'after': unbound symbol 'i'";
  let o = both_engines "opaque, i bound" sdfg args ~symbols:[ ("i", 10) ] in
  expect_output "opaque, i bound" o "z" (floats [| 11.0 |])

let test_value_edge_never_produced () =
  (* The consumer reads a memlet input (charged) before each bad value
     edge: one from an output its source tasklet does not compute, one
     from an access node. *)
  let build ~from_access =
    let sdfg = Sdfg.create "unproduced" in
    let args = [ ("a", [||], floats [| 1.5 |]); ("b", [||], floats [| 0.0 |]) ] in
    add_args sdfg args;
    let s = Sdfg.add_state sdfg "s" in
    let g = s.s_graph in
    let src =
      if from_access then Sdfg.add_node g (Sdfg.Access "a")
      else
        Sdfg.add_node g
          (Sdfg.TaskletN
             (mk_tasklet "src" [] [ "_o" ] [ ("_o", Texpr.TFloat 2.0) ]))
    in
    let aa = Sdfg.add_node g (Sdfg.Access "a") in
    let t =
      add_writer ~ins:[ "_a"; "_v" ] g "use"
        [ ("_w", Texpr.TBin (Texpr.BAdd, TIn "_a", TIn "_v"), "b", []) ]
    in
    ignore (Sdfg.add_edge g ~dst_conn:"_a" ~memlet:(memlet "a" []) aa t);
    ignore (Sdfg.add_edge g ~src_conn:"_missing" ~dst_conn:"_v" src t);
    sdfg.start_state <- "s";
    (sdfg, args)
  in
  List.iter
    (fun (label, from_access) ->
      let sdfg, args = build ~from_access in
      let o = both_engines label sdfg args ~symbols:[] in
      expect_trap label o "value edge source";
      expect_trap label o "not yet executed";
      let _, _, mt, _ = o in
      Alcotest.(check bool) (label ^ ": earlier read charged") true
        (mt.loads >= 1))
    [ ("unproduced output", false); ("value edge from an access node", true) ]

let suite =
  ( "interp-plans",
    [
      Alcotest.test_case "sym_env scalar read charges a load" `Quick
        test_symenv_scalar_load;
      Alcotest.test_case "10k-state construction is linear" `Quick
        test_construction_scale;
      Alcotest.test_case "float->int truncates toward zero" `Quick
        test_toint_truncation;
      Alcotest.test_case "float->int traps on nan/inf, uniformly" `Quick
        test_toint_traps;
      Alcotest.test_case "min/max float cross-interpreter parity" `Quick
        test_float_minmax_cross_interp;
      Alcotest.test_case "fmod float semantics" `Quick test_float_mod_semantics;
      Alcotest.test_case "BMod/BMin/BMax bytecode parity" `Quick
        test_float_binops_tasklet_parity;
      Alcotest.test_case "bytecode trap-timing parity" `Quick
        test_bytecode_trap_timing;
      Alcotest.test_case "malformed state: same raise point" `Quick
        test_malformed_state;
      Alcotest.test_case "slots: symbol shadows a scalar container" `Quick
        test_symbol_shadows_scalar;
      Alcotest.test_case "slots: map parameter restored to unbound" `Quick
        test_map_param_restore;
      Alcotest.test_case "slots: interstate assignments swap" `Quick
        test_interstate_swap;
      Alcotest.test_case "slots: value edge in a parallel map" `Quick
        test_par_value_edge;
      Alcotest.test_case "slots: opaque tasklet reads a loop symbol" `Quick
        test_opaque_loop_symbol;
      Alcotest.test_case "slots: value edge never produced" `Quick
        test_value_edge_never_produced;
      Alcotest.test_case "mlir calls and recursion: closure-vs-tree" `Quick
        test_mlir_calls_differential;
      Alcotest.test_case "mlir trap parity under per-call frames" `Quick
        test_mlir_trap_parity;
      Alcotest.test_case "fuzz corpus bytecode-vs-tree diff" `Slow
        test_fuzz_differential;
      Alcotest.test_case "fuzz corpus mlir closure-vs-tree" `Slow
        test_mlir_fuzz_differential;
      Alcotest.test_case "polybench bytecode-vs-tree metrics" `Slow
        test_polybench_differential;
    ] )
