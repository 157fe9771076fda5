(** The dcir benchmark: end-to-end and per-layer metrics over four
    workloads.

    {v
    bench.exe --workload NAME --seed N --seconds S --trace 0|1
    v}

    Workloads (see README.md beside this file for why each was chosen):
    - [polybench-sweep]: the 29 Polybench/C kernels in a seeded order,
      each compiled by the five pipelines at O2 and run once;
    - [fuzz-cold]: seeded generated programs, each compiled by the five
      pipelines and run once on tiny arrays;
    - [serve-mixed]: one seeded request batch through [Engine.run], timed
      at 1 worker; the traced run also runs it at [nproc] workers;
    - [autopar-par]: gemm, mvt, atax and bicg compiled with
      [~autopar:true] on dcir and run at [jobs = nproc].

    Every run checks every output against a reference computed in set-up
    by the tree walker on the unoptimized Polygeist MLIR, so the oracle
    depends on neither the optimizers nor the fast execution tiers.

    [--trace 0] runs whole passes over the workload until [--seconds]
    have elapsed and prints the end-to-end metrics: CPU times scaled to a
    reference host speed, which calibration slices run on a profiling
    timer measure (see "Timing and host speed" below). [--trace 1] runs one
    untraced pass and one traced pass: the traced pass composes each
    compile from the public phase functions, records a span around every
    layer call, checks that the composed artifact has the digest
    [Pipelines.compile] gives, and prints the per-layer metrics. Spans
    are written to [perfbench/out/] in Chrome trace_event form.

    The last line of standard output is one JSON object with the keys
    [correct], [attempted], [failed] and [metrics]. *)

module P = Dcir_core.Pipelines
module Workload = Dcir_workloads.Workload
module Polybench = Dcir_workloads.Polybench
module Gen = Dcir_fuzz.Gen
module Rng = Dcir_fuzz.Rng
module Oracle = Dcir_fuzz.Oracle
module Engine = Dcir_serve.Engine
module Request = Dcir_serve.Request
module Sjournal = Dcir_serve.Sjournal
module Synth = Dcir_serve.Synth
module Budget = Dcir_resilience.Budget
module Breaker = Dcir_resilience.Breaker
module Events = Dcir_obs.Events
module Json = Dcir_obs.Json
module Om = Dcir_obs.Metrics
module Machine = Dcir_machine.Machine
module Sdfg = Dcir_sdfg.Sdfg

let now = Unix.gettimeofday
let nproc = max 1 (Domain.recommended_domain_count ())

(* Set-up is repeated and its median reported, so that work moved into
   set-up shows in [setup_s]. *)
let setup_reps = 3

(* ------------------------------------------------------------------ *)
(* Spans and per-layer counters (traced run only) *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_op : int;
  sp_parent : int;
  sp_t0 : float;
  mutable sp_t1 : float;
  mutable sp_child : float;  (** seconds covered by direct children *)
}

let tracing = ref false
let spans : span list ref = ref []
let stack : span list ref = ref []
let next_span = ref 0
let current_op = ref (-1)

let span (name : string) (f : unit -> 'a) : 'a =
  if not !tracing then f ()
  else begin
    let parent = match !stack with p :: _ -> p.sp_id | [] -> -1 in
    let sp =
      {
        sp_id = !next_span;
        sp_name = name;
        sp_op = !current_op;
        sp_parent = parent;
        sp_t0 = now ();
        sp_t1 = 0.0;
        sp_child = 0.0;
      }
    in
    incr next_span;
    stack := sp :: !stack;
    Fun.protect
      ~finally:(fun () ->
        sp.sp_t1 <- now ();
        stack := List.tl !stack;
        (match !stack with
        | p :: _ -> p.sp_child <- p.sp_child +. (sp.sp_t1 -. sp.sp_t0)
        | [] -> ());
        spans := sp :: !spans)
      f
  end

let duration_ms (sp : span) : float = (sp.sp_t1 -. sp.sp_t0) *. 1e3

let wall_ms (f : unit -> 'a) : 'a * float =
  let t = now () in
  let r = f () in
  (r, (now () -. t) *. 1e3)

(* Self time: the span's duration minus the part its children cover.
   Children of one span never overlap (every layer call is synchronous),
   so the covered part is the sum of their durations. *)
let self_ms (name : string) : float =
  List.fold_left
    (fun acc sp ->
      if sp.sp_name = name then acc +. duration_ms sp -. (sp.sp_child *. 1e3)
      else acc)
    0.0 !spans

let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let add (key : string) (v : float) : unit =
  if !tracing then
    Hashtbl.replace counters key
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters key))

let get (key : string) : float =
  Option.value ~default:0.0 (Hashtbl.find_opt counters key)

let alloc_words () : float =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let with_alloc (key : string) (f : unit -> 'a) : 'a =
  if not !tracing then f ()
  else
    let a0 = alloc_words () in
    let r = f () in
    add key (alloc_words () -. a0);
    r

(* Registry reads: histogram sums and counters of the program's own
   always-on metrics ({!Dcir_obs.Metrics}). *)
let registry_section (section : string) : (string * Json.t) list =
  match Json.member section (Om.to_json ()) with
  | Some (Json.Obj kvs) -> kvs
  | _ -> []

let hist_sum (name : string) : float =
  match List.assoc_opt name (registry_section "histograms") with
  | Some h -> (
      match Json.member "sum" h with
      | Some (Json.Float f) -> f
      | Some (Json.Int n) -> float_of_int n
      | _ -> 0.0)
  | None -> 0.0

let counter (name : string) : float =
  match List.assoc_opt name (registry_section "counters") with
  | Some (Json.Int n) -> float_of_int n
  | _ -> 0.0

let write_trace (path : string) (meta : (string * Json.t) list) : unit =
  let base = match List.rev !spans with sp :: _ -> sp.sp_t0 | [] -> 0.0 in
  let ev sp =
    Json.Obj
      [
        ("name", Json.Str sp.sp_name);
        ("cat", Json.Str "layer");
        ("ph", Json.Str "X");
        ("ts", Json.Float ((sp.sp_t0 -. base) *. 1e6));
        ("dur", Json.Float ((sp.sp_t1 -. sp.sp_t0) *. 1e6));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ( "args",
          Json.Obj
            [
              ("id", Json.Int sp.sp_id);
              ("parent", Json.Int sp.sp_parent);
              ("op", Json.Int sp.sp_op);
            ] );
      ]
  in
  let doc =
    Json.Obj
      [
        ("traceEvents", Json.List (List.rev_map ev !spans));
        ("displayTimeUnit", Json.Str "ms");
        ("otherData", Json.Obj meta);
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Timing and host speed *)

(* The clock of the end-to-end times. Single-domain workloads use the
   process's CPU time (user + system): on the 2-core host this was tuned
   on, the hypervisor takes the CPU away for 1-5 s of a 20 s run, which
   moves wall time by 20%. autopar-par runs on several domains at once,
   so it uses wall time. *)
let cpu_now () : float =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

let clock : (unit -> float) ref = ref cpu_now

(* CPU time alone does not make a steady gate: the same host runs the
   same code at speeds up to 65% apart, switching within tens of ms and
   drifting over minutes. So a fixed piece of work, a calibration slice,
   runs every [cal_period_s] of CPU time on a profiling timer, and every
   end-to-end time is scaled by the host speed the slices around it
   measured ({!scaled}).

   A slice shares no code with the program. It resembles the program's
   hot loops (an LRU scan of a set-associative tag array, as the machine
   model's caches do, and lookups in a string-keyed hash table) but
   allocates nothing, so its speed depends on the host and not on the
   state of the program's heap. Its data (64 KB of arrays, 512 keys) is
   warmed before the slice is timed, so the program's cache footprint
   shows in it as little as possible. *)
type calibration = {
  cal_tags : int array;  (** 512 sets x 8 ways *)
  cal_stamps : int array;
  cal_table : (string, int) Hashtbl.t;
  cal_keys : string array;
  mutable cal_tick : int;
}

let cal_state : calibration =
  let keys = Array.init 512 (fun i -> Printf.sprintf "v%d.%d" (i * 7919) i) in
  let table = Hashtbl.create 512 in
  Array.iteri (fun i k -> Hashtbl.replace table k i) keys;
  {
    cal_tags = Array.make (512 * 8) (-1);
    cal_stamps = Array.make (512 * 8) 0;
    cal_table = table;
    cal_keys = keys;
    cal_tick = 0;
  }

let cal_work (c : calibration) (n : int) : int =
  let acc = ref 0 in
  let line = ref 12345 in
  for _ = 1 to n do
    (* LRU access of one line of a pseudo-random address stream. *)
    line := ((!line * 1103515245) + 12345) land 0x1fff;
    c.cal_tick <- c.cal_tick + 1;
    let base = (!line land 511) * 8 in
    let way = ref (-1) and victim = ref 0 in
    for w = 0 to 7 do
      if c.cal_tags.(base + w) = !line then way := w;
      if c.cal_stamps.(base + w) < c.cal_stamps.(base + !victim) then victim := w
    done;
    let w = if !way >= 0 then !way else !victim in
    c.cal_tags.(base + w) <- !line;
    c.cal_stamps.(base + w) <- c.cal_tick;
    acc := !acc + w + Hashtbl.find c.cal_table c.cal_keys.(!line land 511)
  done;
  !acc

(* CPU time between two slices; how long a slice takes on the reference
   host (a 2-vCPU x86-64 VM) at its usual speed. *)
let cal_period_s = 0.005
let cal_nominal_ms = 0.2

(* Every slice of the run in order, in ms, and the CPU ms spent in the
   timer's handler, which [timed] leaves out of the times it takes. *)
let cal_slices : float array ref = ref (Array.make 4096 0.0)
let cal_count = ref 0
let cal_spent_ms = ref 0.0

let cal_slice (_ : int) : unit =
  let t0 = cpu_now () in
  ignore (Sys.opaque_identity (cal_work cal_state 500));
  let t1 = cpu_now () in
  ignore (Sys.opaque_identity (cal_work cal_state 2000));
  let t2 = cpu_now () in
  if !cal_count = Array.length !cal_slices then
    cal_slices := Array.append !cal_slices (Array.make !cal_count 0.0);
  !cal_slices.(!cal_count) <- (t2 -. t1) *. 1e3;
  incr cal_count;
  cal_spent_ms := !cal_spent_ms +. ((t2 -. t0) *. 1e3)

let set_timer (period : float) : unit =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = period; it_value = period })

(* Slices run from here until [stop_calibration]. *)
let start_calibration () : unit =
  Sys.set_signal Sys.sigprof (Sys.Signal_handle cal_slice);
  set_timer cal_period_s

(* Per slice, the host speed relative to the reference. A slice's own
   time is noisy, so the speed uses the median of the slices within
   [cal_smooth] of it. *)
let cal_smooth = 20
let cal_speeds : float array ref = ref [||]

let stop_calibration () : unit =
  set_timer 0.0;
  (* A signal already raised is dropped, not fatal. *)
  Sys.set_signal Sys.sigprof Sys.Signal_ignore;
  let n = !cal_count in
  cal_speeds :=
    Array.init n (fun i ->
        let lo = max 0 (i - cal_smooth) and hi = min n (i + cal_smooth + 1) in
        let w = Array.sub !cal_slices lo (hi - lo) in
        Array.sort compare w;
        cal_nominal_ms /. w.((hi - lo) / 2))

(* A time taken on [!clock], in ms with the slices left out, and the
   number of slices run before it started and before it ended. *)
type sample = { ms : float; first : int; last : int }

let timed (f : unit -> 'a) : 'a * sample =
  let first = !cal_count and spent = !cal_spent_ms and t0 = !clock () in
  let r = f () in
  let t1 = !clock () in
  (r, { ms = ((t1 -. t0) *. 1e3) -. (!cal_spent_ms -. spent); first; last = !cal_count })

(* How far the log of the program's CPU time moves per unit of log host
   speed, fitted on the reference host by regressing each op's time on
   the speed around it across passes: about 1.3 for runs, which dominate
   passes and set-up, and 1.0 for compiles. *)
let run_elasticity = 1.3
let compile_elasticity = 1.0

(* [s] at the reference host speed: its time times the mean of
   [speed ** elasticity] over the slices run during it and the one on
   either side. The slices run at even steps of CPU time, so over a long
   sample this is its mean speed. Without slices (the timer was off) the
   time is as measured. *)
let scaled ?(elasticity = run_elasticity) (s : sample) : float =
  let speeds = !cal_speeds in
  let lo = max 0 (s.first - 1) and hi = min (Array.length speeds) (s.last + 1) in
  if hi <= lo then s.ms
  else begin
    let sum = ref 0.0 in
    for i = lo to hi - 1 do
      sum := !sum +. (speeds.(i) ** elasticity)
    done;
    s.ms *. !sum /. float_of_int (hi - lo)
  end

(* ------------------------------------------------------------------ *)
(* Operations and their outcomes *)

type op = {
  op_label : string;
  op_kind : P.kind;
  op_src : string;
  op_entry : string;
  op_args : P.arg list option;  (** [None]: compile only *)
  op_ref : P.run_result option;  (** expected outputs of a run *)
  op_autopar : bool;
  op_jobs : int;
  op_compiles : int;
      (** compile calls timed before the run, which uses the last one *)
}

type stats = {
  mutable compile_ms : sample list;
  mutable exec_ms : sample list;
  mutable dcir_cycles : float list;
  mutable attempted : int;
  mutable failures : string list;  (** newest first *)
}

let new_stats () =
  { compile_ms = []; exec_ms = []; dcir_cycles = []; attempted = 0; failures = [] }

let fail (st : stats) ~(id : string) (msg : string) : unit =
  st.failures <- Printf.sprintf "op %s: %s" id msg :: st.failures

let check (o : op) (r : P.run_result) : string option =
  match o.op_ref with None -> None | Some reference -> Oracle.divergence reference r

(* The unoptimized Polygeist MLIR on the tree walker: the correctness
   reference for every pipeline. *)
let reference ~(src : string) ~(entry : string) (args : P.arg list) :
    P.run_result =
  P.run ~interp_mode:`Tree (P.CMlir (Dcir_cfront.Polygeist.compile src)) ~entry
    args

let kind_ops ?(compiles = 1) ~(label : string) ~(src : string)
    ~(entry : string) (args : P.arg list) (r : P.run_result) : op list =
  List.map
    (fun kind ->
      {
        op_label = label ^ "/" ^ P.kind_name kind;
        op_kind = kind;
        op_src = src;
        op_entry = entry;
        op_args = Some args;
        op_ref = Some r;
        op_autopar = false;
        op_jobs = 1;
        op_compiles = compiles;
      })
    P.all_kinds

(* Untraced: exactly what a user of the library calls. *)
let run_op (st : stats) ~(id : string) (o : op) : unit =
  st.attempted <- st.attempted + 1;
  match
    let compile () =
      let c, tm =
        timed (fun () ->
            P.compile ~autopar:o.op_autopar ~budget:(Budget.create ())
              o.op_kind ~src:o.op_src ~entry:o.op_entry)
      in
      st.compile_ms <- tm :: st.compile_ms;
      c
    in
    for _ = 2 to o.op_compiles do ignore (compile ()) done;
    let compiled = compile () in
    match o.op_args with
    | None -> None
    | Some args ->
        let r, tm =
          timed (fun () ->
              P.run ~budget:(Budget.create ()) ~jobs:o.op_jobs compiled
                ~entry:o.op_entry args)
        in
        st.exec_ms <- tm :: st.exec_ms;
        if o.op_kind = P.Dcir then
          st.dcir_cycles <- r.P.metrics.Dcir_machine.Metrics.cycles :: st.dcir_cycles;
        check o r
  with
  | None -> ()
  | Some msg -> fail st ~id (o.op_label ^ ": " ^ msg)
  | exception e -> fail st ~id (o.op_label ^ ": " ^ Printexc.to_string e)

(* Changed pass applications recorded as PASS-ADMIT events of [domain]. *)
let changed_applications (ev : Events.t) (domain : string) : int =
  List.length
    (List.filter
       (fun (e : Events.event) ->
         Events.str_field e "domain" = domain
         && Events.field e "changed" = Some (Json.Bool true))
       (Events.with_code ev "PASS-ADMIT"))

let record_autopar (report : Dcir_autopar.Loop_to_map.report) : unit =
  add "autopar.loops" (float_of_int (List.length report));
  add "autopar.certified"
    (float_of_int
       (List.length
          (List.filter
             (fun (e : Dcir_autopar.Loop_to_map.entry) ->
               match e.en_outcome with
               | Dcir_autopar.Loop_to_map.Converted _ -> true
               | Dcir_autopar.Loop_to_map.Rejected _ -> false)
             report)))

(* [Pipelines.compile] at O2, composed from its public phase functions in
   the same order, with a span and counters around every layer call. *)
let composed_compile ~(budget : Budget.t) (o : op) : P.compiled =
  let ev = Events.create () in
  Events.install ev;
  Fun.protect ~finally:Events.clear (fun () ->
      let frontend () =
        let m =
          span "cfront" (fun () ->
              with_alloc "cfront.alloc_words" (fun () ->
                  P.frontend_phase o.op_src))
        in
        add "cfront.mlir_ops" (float_of_int (Dcir_mlir.Pass.count_ops m));
        (match P.control_passes o.op_kind with
        | [] -> ()
        | passes ->
            let fuel0 = budget.Budget.fuel in
            let rounds0 = hist_sum "mlir.fixpoint.rounds" in
            span "mlir_passes" (fun () ->
                with_alloc "mlir_passes.alloc_words" (fun () ->
                    P.control_phase ~budget ~passes m));
            add "mlir_passes.fuel" (float_of_int (budget.Budget.fuel - fuel0));
            add "mlir_passes.rounds" (hist_sum "mlir.fixpoint.rounds" -. rounds0));
        add "mlir_passes.ops_out" (float_of_int (Dcir_mlir.Pass.count_ops m));
        span "mlir.verify" (fun () -> P.verify_phase m);
        m
      in
      let data_centric (sdfg : Sdfg.t) =
        let fuel0 = budget.Budget.fuel in
        let rounds0 = hist_sum "dace.fixpoint.rounds" in
        let elim0 = Dcir_dace_passes.Driver.eliminated_containers () in
        span "dace_passes" (fun () ->
            with_alloc "dace_passes.alloc_words" (fun () ->
                P.dace_phase ~budget ~disable:[] sdfg));
        add "dace_passes.fuel" (float_of_int (budget.Budget.fuel - fuel0));
        add "dace_passes.rounds" (hist_sum "dace.fixpoint.rounds" -. rounds0);
        add "dace_passes.eliminated_containers"
          (float_of_int (Dcir_dace_passes.Driver.eliminated_containers () - elim0));
        add "dace_passes.states_out" (float_of_int (List.length (Sdfg.states sdfg)));
        if o.op_autopar then begin
          span "autopar" (fun () -> P.autopar_phase sdfg);
          Option.iter record_autopar !P.last_autopar_report
        end
      in
      let compiled =
        match o.op_kind with
        | P.Gcc | P.Clang | P.Mlir -> P.CMlir (frontend ())
        | P.Dace ->
            let sdfg =
              span "dace_frontend" (fun () ->
                  Dcir_core.Dace_frontend.compile o.op_src ~entry:o.op_entry)
            in
            data_centric sdfg;
            P.CSdfg sdfg
        | P.Dcir ->
            let m = frontend () in
            let converted =
              span "converter" (fun () -> Dcir_core.Converter.convert_module m)
            in
            let sdfg =
              span "translator" (fun () ->
                  Dcir_core.Translator.translate_module converted
                    ~entry:o.op_entry)
            in
            add "translator.states_out"
              (float_of_int (List.length (Sdfg.states sdfg)));
            data_centric sdfg;
            P.CSdfg sdfg
      in
      add "mlir_passes.changed" (float_of_int (changed_applications ev "control"));
      add "dace_passes.changed" (float_of_int (changed_applications ev "data"));
      compiled)

(* SDFG products compare by the artifact store's key. MLIR products
   compare by their printed form with numbered names canonicalized and
   layout whitespace collapsed: the printer's indentation follows the
   width of the raw value numbers, which depend on how much was compiled
   earlier in the process. *)
let same_artifact (a : P.compiled) (b : P.compiled) : bool =
  match (a, b) with
  | P.CSdfg x, P.CSdfg y -> P.digest_of_sdfg x = P.digest_of_sdfg y
  | P.CMlir x, P.CMlir y ->
      let text m =
        String.concat " "
          (List.filter (( <> ) "")
             (String.split_on_char ' '
                (String.map
                   (fun c -> if c = '\n' || c = '\t' then ' ' else c)
                   (Dcir_support.Digest.canonical
                      (Dcir_mlir.Printer.module_to_string m)))))
      in
      text x = text y
  | _ -> false

(* The process-global counters that number MLIR values and ops and SDFG
   nodes. The fidelity check compiles twice from the same counter state,
   then moves the counters past both compiles so that ids stay unique. *)
let id_counters () : int * int * int =
  let ctx = Dcir_mlir.Ir.global_ctx in
  (ctx.next_vid, ctx.next_oid, Atomic.get Sdfg.node_counter)

let set_id_counters ((v, o, n) : int * int * int) : unit =
  let ctx = Dcir_mlir.Ir.global_ctx in
  ctx.next_vid <- v;
  ctx.next_oid <- o;
  Atomic.set Sdfg.node_counter n

let max_ids (v, o, n) (v', o', n') = (max v v', max o o', max n n')

let plan_counts () : float * float * float =
  (counter "plan_cache.hits", counter "plan_cache.misses", counter "plan_cache.evictions")

(* Traced: the same operation, one span per layer call. Probes time the
   layers a default run does not expose on their own ([Machine.create],
   [Machine.fork], bytecode lowering, and the auto-parallelizer on
   products compiled without it); they run on a second artifact, the one
   [Pipelines.compile] returns for the fidelity check. *)
let traced_op (st : stats) ~(num : int) ~(id : string) (o : op) : unit =
  st.attempted <- st.attempted + 1;
  current_op := num;
  let outcome =
    try
      span "op" (fun () ->
          let budget = Budget.create () in
          let ids0 = id_counters () in
          let compiled = span "compile" (fun () -> composed_compile ~budget o) in
          (match compiled with
          | P.CSdfg sdfg -> ignore (span "digest" (fun () -> P.digest_of_sdfg sdfg))
          | P.CMlir _ -> ());
          let ids1 = id_counters () in
          set_id_counters ids0;
          let plain_compile () =
            span "fidelity" (fun () ->
                P.compile ~autopar:o.op_autopar ~budget:(Budget.create ())
                  o.op_kind ~src:o.op_src ~entry:o.op_entry)
          in
          let plain = plain_compile () in
          set_id_counters (max_ids ids1 (id_counters ()));
          (* The same compile from a later id-counter state: a different
             artifact means the compiler's output depends on what was
             compiled before it in the process. *)
          if not (same_artifact plain (plain_compile ())) then begin
            add "compile.history_dependent" 1.0;
            Printf.eprintf
              "NONDETERMINISM op %s: %s: Pipelines.compile returns a \
               different artifact for the same source later in the process\n%!"
              id o.op_label
          end;
          let fidelity =
            if same_artifact plain compiled then None
            else
              Some
                "trace fidelity: the phase-composed artifact differs from \
                 Pipelines.compile's"
          in
          (match plain with
          | P.CSdfg sdfg ->
              let prog =
                span "bytecode.lower" (fun () -> Dcir_bytecode.Lower.lower sdfg)
              in
              add "bytecode.instrs" (float_of_int (Dcir_bytecode.Isa.size prog));
              if not o.op_autopar then
                record_autopar
                  (span "autopar" (fun () ->
                       Dcir_autopar.Loop_to_map.parallelize sdfg))
          | P.CMlir _ -> ());
          let machine, create_ms =
            wall_ms (fun () -> span "machine.create" (fun () -> Machine.create ()))
          in
          ignore (span "machine.fork" (fun () -> Machine.fork machine));
          add "machine.probes" 1.0;
          match o.op_args with
          | None -> fidelity
          | Some args -> (
              (match compiled with
              | P.CSdfg sdfg ->
                  (* The lookup [Pipelines.run] would make, timed on its
                     own; the run's own lookup then hits. *)
                  let h0, m0, e0 = plan_counts () in
                  ignore (span "plan_lookup" (fun () -> P.plan_for sdfg));
                  let h1, m1, e1 = plan_counts () in
                  add "plan_cache.hits" (h1 -. h0);
                  add "plan_cache.misses" (m1 -. m0);
                  add "plan_cache.evictions" (e1 -. e0)
              | P.CMlir _ -> ());
              let bh0 = counter "bytecode_cache.hits"
              and bm0 = counter "bytecode_cache.misses" in
              let run_budget = Budget.create () in
              let a0 = alloc_words () in
              let r, run_ms =
                wall_ms (fun () ->
                    span "run" (fun () ->
                        P.run ~budget:run_budget ~jobs:o.op_jobs compiled
                          ~entry:o.op_entry args))
              in
              add "exec.alloc_words" (alloc_words () -. a0);
              add "bytecode_cache.hits" (counter "bytecode_cache.hits" -. bh0);
              add "bytecode_cache.misses" (counter "bytecode_cache.misses" -. bm0);
              add
                (match compiled with
                | P.CMlir _ -> "exec.mlir_ms"
                | P.CSdfg _ -> "exec.sdfg_ms")
                (run_ms -. create_ms);
              add "exec.steps" (float_of_int run_budget.Budget.steps);
              add ("exec.tier." ^ r.P.exec_tier) 1.0;
              let m = r.P.metrics in
              let k = "machine." ^ P.kind_name o.op_kind in
              add (k ^ ".cycles") m.Dcir_machine.Metrics.cycles;
              add (k ^ ".loads") (float_of_int m.loads);
              add (k ^ ".stores") (float_of_int m.stores);
              add (k ^ ".l1_misses") (float_of_int m.l1_misses);
              add (k ^ ".l3_misses") (float_of_int m.l3_misses);
              if o.op_kind = P.Dcir then
                st.dcir_cycles <- m.cycles :: st.dcir_cycles;
              match check o r with Some msg -> Some msg | None -> fidelity))
    with e -> Some (Printexc.to_string e)
  in
  current_op := -1;
  Option.iter (fun msg -> fail st ~id (o.op_label ^ ": " ^ msg)) outcome

let op_pass (st : stats) (ops : op list) : unit =
  (* Every pass starts from an empty artifact store, so passes repeat
     exactly and a [fuzz-cold] lookup never hits a program's earlier
     pass. *)
  P.reset_plan_cache ();
  List.iteri
    (fun i o ->
      let id = string_of_int i in
      if !tracing then traced_op st ~num:i ~id o else run_op st ~id o)
    ops

(* ------------------------------------------------------------------ *)
(* Workload set-up: inputs from the seed, reference outputs *)

let shuffle (rng : Random.State.t) (xs : 'a list) : 'a list =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Small generated programs: at most 3 statements a block, nested at
   most 2 deep. *)
let gen_cfg = { Gen.default_cfg with max_stmts = 3; max_depth = 2 }

(* [count] generated programs with their reference runs, in a seeded
   order. They are drawn from [4 * count] seeded candidates ordered by
   source length, keeping every fourth: the seed picks the programs while
   their size mix follows the generator's own distribution, so a run's
   cost does not hinge on how many large programs one seed drew. A
   program the reference cannot run is not a valid input and is
   skipped. *)
let generated ~(seed : int) ~(tag : int) (count : int) :
    (Gen.case * P.run_result) list =
  List.init (4 * count) (fun i ->
      Gen.generate ~cfg:gen_cfg (Rng.derive seed ((tag * 1_000_000) + i)))
  |> List.stable_sort (fun (a : Gen.case) (b : Gen.case) ->
         compare (String.length a.src) (String.length b.src))
  |> List.filteri (fun i _ -> i mod 4 = 2)
  |> List.filter_map (fun (c : Gen.case) ->
         match reference ~src:c.src ~entry:c.entry (c.args ()) with
         | r -> Some (c, r)
         | exception _ -> None)
  |> shuffle (Random.State.make [| seed; tag |])

(* Compile calls per [polybench-sweep] op and per [serve-mixed] replayed
   request. A run takes 10-30 times as long as a compile, so one compile
   per op leaves compile_ms with too few samples to be steady; three add
   about a tenth to a pass. *)
let compiles_per_op = 3

let polybench_ops (seed : int) : op list =
  let rng = Random.State.make [| seed; 1 |] in
  List.concat_map
    (fun (w : Workload.t) ->
      let args = w.args () in
      kind_ops ~compiles:compiles_per_op ~label:w.name ~src:w.src
        ~entry:w.entry args
        (reference ~src:w.src ~entry:w.entry args))
    (shuffle rng Polybench.all)

(* Programs per [fuzz-cold] pass: each is compiled and run by all five
   pipelines, so one pass is 5x this many ops. *)
let fuzz_programs = 400

let fuzz_ops (seed : int) : op list =
  List.concat_map
    (fun ((c : Gen.case), r) ->
      kind_ops
        ~label:(Printf.sprintf "gen%d" c.seed)
        ~src:c.src ~entry:c.entry (c.args ()) r)
    (generated ~seed ~tag:1 fuzz_programs)

(* The kernels [test_autopar] certifies; input arrays are drawn from the
   seed with the kernels' own shapes. *)
let autopar_ops (seed : int) : op list =
  let rng = Random.State.make [| seed; 4 |] in
  List.map
    (fun (w : Workload.t) ->
      let args =
        List.map
          (function
            | P.AFloatArr (data, dims) ->
                P.AFloatArr
                  (Array.map (fun _ -> Random.State.float rng 1.0) data, dims)
            | a -> a)
          (w.args ())
      in
      {
        op_label = w.name ^ "/dcir-autopar";
        op_kind = P.Dcir;
        op_src = w.src;
        op_entry = w.entry;
        op_args = Some args;
        op_ref = Some (reference ~src:w.src ~entry:w.entry args);
        op_autopar = true;
        op_jobs = nproc;
        (* A run takes seconds and a compile milliseconds: repeating the
           compile gives compile_ms enough samples. *)
        op_compiles = 10;
      })
    (shuffle rng Polybench.[ gemm; mvt; atax; bicg ])

(* --- serve-mixed ---------------------------------------------------- *)

type expect =
  | Poison
  | Compile_only
  | Run_ref of P.run_result

type request = {
  rq_id : string;
  rq_kind : P.kind;
  rq_label : string;  (** source and pipeline, for failure reports *)
  rq_expect : expect;
}

type batch = {
  b_text : string;  (** the request document, parsed in each timed batch *)
  b_requests : request list;
  b_replay : op list;  (** each well-formed request, outside the engine *)
}

let serve_requests = 200
let serve_tenants = [| "t0"; "t1"; "t2" |]

(* Repeated named workloads: small Polybench kernels, so that store hits
   and misses both show in the batch's wall time. *)
let serve_workloads = Polybench.[ trisolv; durbin; gesummv; bicg ]

(* The pool shared across tenants, sent as inline sources. Generated
   programs would fit the pool's purpose, but at this commit some of
   them are miscompiled (see README.md), and a run request's output is
   checked. *)
let serve_pool = Polybench.[ mvt; atax; jacobi_1d; trmm ]

(* The request mix: 30% runs on the named workloads, 40% runs over the
   inline pool, 20% compiles of unique generated programs and 10% poison.
   Pipelines are assigned round-robin within each class, so the mix of
   (source, pipeline) pairs of the runs is the same for every seed; the
   seed draws the generated programs, the order and the tenants. *)
let serve_batch (seed : int) : batch =
  let rng = Random.State.make [| seed; 3 |] in
  let n = serve_requests in
  let n_work = n * 3 / 10 and n_pool = n * 4 / 10 and n_compile = n * 2 / 10 in
  let n_poison = n - n_work - n_pool - n_compile in
  let programs tag count = Array.of_list (List.map fst (generated ~seed ~tag count)) in
  let compiled = programs 3 n_compile and poisoned = programs 4 n_poison in
  let kinds = Array.of_list P.all_kinds in
  let round_robin pool i =
    let k = List.length pool in
    (List.nth pool (i mod k), kinds.(i / k mod 5))
  in
  let specs =
    List.init n_work (fun i ->
        let w, kind = round_robin serve_workloads i in
        (`Run, `Workload w, kind))
    @ List.init n_pool (fun i ->
          let (w : Workload.t), kind = round_robin serve_pool i in
          (`Run, `Inline (w.name ^ "-inline", w.src, w.entry), kind))
    @ List.init n_compile (fun i ->
          let (c : Gen.case) = compiled.(i) in
          (`Compile, `Inline (Printf.sprintf "gen%d" c.seed, c.src, c.entry), kinds.(i mod 5)))
    @ List.init n_poison (fun i ->
          (* A generated source cut in half: unbalanced braces, so the
             frontend rejects it. *)
          let (c : Gen.case) = poisoned.(i) in
          ( `Poison,
            `Inline ("poison", String.sub c.src 0 (String.length c.src / 2), c.entry),
            kinds.(i mod 5) ))
  in
  let refs = Hashtbl.create 16 in
  let reference_of src entry args =
    match Hashtbl.find_opt refs src with
    | Some r -> r
    | None ->
        let r = reference ~src ~entry args in
        Hashtbl.replace refs src r;
        r
  in
  let built =
    List.mapi
      (fun i (what, source, kind) ->
        let id = Printf.sprintf "r%d" i in
        let tenant = serve_tenants.(Random.State.int rng 3) in
        let name, src, entry, args, json_source =
          match source with
          | `Workload (w : Workload.t) ->
              (w.name, w.src, w.entry, w.args, Json.Obj [ ("workload", Json.Str w.name) ])
          | `Inline (name, src, entry) ->
              ( name,
                src,
                entry,
                (fun () -> Synth.args src entry ~size:16.0),
                Json.Obj [ ("inline", Json.Str src); ("entry", Json.Str entry) ] )
        in
        let json =
          Json.Obj
            [
              ("id", Json.Str id);
              ("tenant", Json.Str tenant);
              ("op", Json.Str (if what = `Compile then "compile" else "run"));
              ("source", json_source);
              ("pipeline", Json.Str (P.kind_name kind));
            ]
        in
        let label = name ^ "/" ^ P.kind_name kind in
        let replay op_args op_ref =
          Some
            {
              op_label = id ^ " " ^ label;
              op_kind = kind;
              op_src = src;
              op_entry = entry;
              op_args;
              op_ref;
              op_autopar = false;
              op_jobs = 1;
              op_compiles = compiles_per_op;
            }
        in
        let expect, replay =
          match what with
          | `Poison -> (Poison, None)
          | `Compile -> (Compile_only, replay None None)
          | `Run ->
              let a = args () in
              let r = reference_of src entry a in
              (Run_ref r, replay (Some a) (Some r))
        in
        (json, { rq_id = id; rq_kind = kind; rq_label = label; rq_expect = expect }, replay))
      (shuffle rng specs)
  in
  {
    b_text =
      Json.to_string
        (Json.Obj
           [
             ("schema", Json.Str "dcir-serve-requests/1");
             ("requests", Json.List (List.map (fun (j, _, _) -> j) built));
           ]);
    b_requests = List.map (fun (_, r, _) -> r) built;
    b_replay = List.filter_map (fun (_, _, o) -> o) built;
  }

(* Every quota is far above the batch's spend and a tenant breaker never
   opens, so only the poison requests fail. *)
let serve_config ~(seed : int) ~(workers : int) : Engine.config =
  {
    Engine.default_config with
    cfg_seed = seed;
    cfg_queue = serve_requests;
    cfg_limits =
      { Budget.max_steps = 1 lsl 50; max_fuel = 1 lsl 40; max_allocs = 1 lsl 40 };
    cfg_breaker = Breaker.make_config ~trip_after:(1 lsl 30) ();
    cfg_workers = workers;
  }

let run_batch (b : batch) ~(seed : int) ~(workers : int) : Engine.report =
  match Request.parse b.b_text with
  | Error e -> failwith ("request batch does not parse: " ^ e)
  | Ok requests -> Engine.run ~config:(serve_config ~seed ~workers) requests

(* Checks one engine report against the expectations; returns the cycles
   of the dcir run requests, whose sources are the same for every seed. *)
let check_batch (st : stats) (b : batch) (rp : Engine.report) : float list =
  let responses = Hashtbl.create 256 in
  List.iter
    (fun (r : Sjournal.response) -> Hashtbl.replace responses r.rs_id r)
    rp.rp_responses;
  List.fold_left
    (fun cycles rq ->
      st.attempted <- st.attempted + 1;
      let bad msg = fail st ~id:rq.rq_id (rq.rq_label ^ ": " ^ msg); cycles in
      match (Hashtbl.find_opt responses rq.rq_id, rq.rq_expect) with
      | None, _ -> bad "no response"
      | Some r, Poison ->
          if r.rs_status = Sjournal.Done then bad "poison request answered DONE"
          else cycles
      | Some r, _ when r.rs_status <> Sjournal.Done ->
          bad ("well-formed request answered " ^ r.rs_code)
      | Some r, Compile_only ->
          if r.rs_digest = None then bad "compile response carries no digest"
          else cycles
      | Some _, Run_ref reference -> (
          match List.assoc_opt rq.rq_id rp.rp_results with
          | None -> bad "DONE run without a result"
          | Some res -> (
              match Oracle.divergence reference res with
              | Some msg -> bad msg
              | None when rq.rq_kind = P.Dcir ->
                  res.P.metrics.Dcir_machine.Metrics.cycles :: cycles
              | None -> cycles)))
    [] b.b_requests

(* ------------------------------------------------------------------ *)
(* Statistics *)

let percentile (p : float) (xs : float list) : float =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs = percentile 0.5 xs

let geomean (xs : float list) : float =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log (Float.max x 1.0)) 0.0 xs
        /. float_of_int (List.length xs))

let peak_heap_mb () : float =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* ------------------------------------------------------------------ *)
(* Runs *)

type prepared = Ops of op list | Serve of batch

let setup (workload : string) (seed : int) : prepared =
  match workload with
  | "polybench-sweep" -> Ops (polybench_ops seed)
  | "fuzz-cold" -> Ops (fuzz_ops seed)
  | "autopar-par" -> Ops (autopar_ops seed)
  | "serve-mixed" -> Serve (serve_batch seed)
  | w -> invalid_arg ("unknown workload " ^ w)

type metric = {
  name : string;
  unit_ : string;
  value : float;
  samples : int;
}

(* --trace 0: whole passes until [seconds] have elapsed. A pass is the
   op list, or one batch through the engine and its replay. Returns each
   pass's timed part with its op count, and the dcir cycles.

   The timed serve batches run at 1 worker. At [nproc] workers the same
   batch takes anywhere from 5 to 13 s on a 2-core host, and now and then
   a request returns a wrong output (README.md), so no steady gate can be
   made there; the traced run runs the batch at [nproc] workers too,
   checks its outputs and reports the pool's speed-up. *)
let measure (st : stats) (prep : prepared) ~(seed : int) ~(seconds : float) :
    (sample * int) list * float list =
  let start = now () in
  let passes = ref [] and cycles = ref None in
  let rec loop () =
    (match prep with
    | Ops list ->
        let (), tm = timed (fun () -> op_pass st list) in
        passes := (tm, List.length list) :: !passes
    | Serve b ->
        let rp, tm = timed (fun () -> run_batch b ~seed ~workers:1) in
        passes := (tm, List.length b.b_requests) :: !passes;
        let c = check_batch st b rp in
        if !cycles = None then cycles := Some c;
        (* [Engine.run] does not expose per-request times: compile_ms and
           exec_ms come from a serial replay of each well-formed request
           outside the engine. *)
        op_pass st b.b_replay);
    if now () -. start < seconds then loop ()
  in
  loop ();
  (* Passes repeat exactly, so the geomean over all of them is the
     geomean of one. *)
  let cycles =
    match prep with
    | Ops _ -> st.dcir_cycles
    | Serve _ -> Option.value ~default:[] !cycles
  in
  (!passes, cycles)

(* Every time is {!scaled} to the reference host speed. *)
let end_to_end ~(setup : sample list) (st : stats)
    ~(passes : (sample * int) list) ~(cycles : float list) : metric list =
  let time ?(unit_ = "ms") ?(per = 1.0) ?elasticity name p (tms : sample list) =
    {
      name;
      unit_;
      value = percentile p (List.map (fun tm -> scaled ?elasticity tm /. per) tms);
      samples = List.length tms;
    }
  in
  let m name unit_ value samples = { name; unit_; value; samples } in
  [
    time ~unit_:"s" ~per:1e3 "setup_s" 0.5 setup;
    m "ops_per_s" "1/s"
      (median (List.map (fun (tm, n) -> float_of_int n /. (scaled tm /. 1e3)) passes))
      (List.fold_left (fun acc (_, n) -> acc + n) 0 passes);
    time ~elasticity:compile_elasticity "compile_ms.p50" 0.5 st.compile_ms;
    time ~elasticity:compile_elasticity "compile_ms.p90" 0.9 st.compile_ms;
    time "exec_ms.p50" 0.5 st.exec_ms;
    time "exec_ms.p90" 0.9 st.exec_ms;
    m "sim_cycles_geomean" "cycles" (geomean cycles) (List.length cycles);
    m "peak_heap_mb" "MB" (peak_heap_mb ()) 1;
  ]

let machine_kinds = List.map P.kind_name P.all_kinds

let per_layer ~(overhead : float) ~(serve : (string * float) list) : metric list =
  let m ?(unit_ = "count") name value = { name; unit_; value; samples = 1 } in
  let ms name span_name = m ~unit_:"ms" name (self_ms span_name) in
  let c name = m name (get name) in
  let ratio name num den = m ~unit_:"ratio" name (if den > 0.0 then num /. den else 0.0) in
  let probes = get "machine.probes" in
  let per_probe name span_name =
    m ~unit_:"ms" name (if probes > 0.0 then self_ms span_name /. probes else 0.0)
  in
  [
    ms "cfront.ms" "cfront";
    m ~unit_:"words" "cfront.alloc_words" (get "cfront.alloc_words");
    c "cfront.mlir_ops";
    ms "mlir_passes.ms" "mlir_passes";
    m ~unit_:"words" "mlir_passes.alloc_words" (get "mlir_passes.alloc_words");
    c "mlir_passes.rounds";
    c "mlir_passes.fuel";
    ratio "mlir_passes.useful_ratio" (get "mlir_passes.changed") (get "mlir_passes.fuel");
    c "mlir_passes.ops_out";
    ms "mlir.verify_ms" "mlir.verify";
    ms "converter.ms" "converter";
    ms "translator.ms" "translator";
    c "translator.states_out";
    ms "dace_frontend.ms" "dace_frontend";
    ms "dace_passes.ms" "dace_passes";
    m ~unit_:"words" "dace_passes.alloc_words" (get "dace_passes.alloc_words");
    c "dace_passes.rounds";
    c "dace_passes.fuel";
    ratio "dace_passes.useful_ratio" (get "dace_passes.changed") (get "dace_passes.fuel");
    c "dace_passes.eliminated_containers";
    c "dace_passes.states_out";
    ms "autopar.ms" "autopar";
    ratio "autopar.certified_ratio" (get "autopar.certified") (get "autopar.loops");
    ms "digest.ms" "digest";
    ratio "plan_cache.hit_ratio" (get "plan_cache.hits")
      (get "plan_cache.hits" +. get "plan_cache.misses");
    c "plan_cache.misses";
    c "plan_cache.evictions";
    ratio "bytecode_cache.hit_ratio" (get "bytecode_cache.hits")
      (get "bytecode_cache.hits" +. get "bytecode_cache.misses");
    ms "bytecode.lower_ms" "bytecode.lower";
    m ~unit_:"instrs" "bytecode.instrs" (get "bytecode.instrs");
    per_probe "machine.create_ms" "machine.create";
    per_probe "machine.fork_ms" "machine.fork";
  ]
  @ List.concat_map
      (fun k ->
        let key s = Printf.sprintf "machine.%s.%s" k s in
        [
          m ~unit_:"cycles" (key "cycles") (get (key "cycles"));
          c (key "loads");
          c (key "stores");
          c (key "l1_misses");
          c (key "l3_misses");
        ])
      machine_kinds
  @ [
      m ~unit_:"ms" "exec.sdfg_ms" (get "exec.sdfg_ms");
      m ~unit_:"ms" "exec.mlir_ms" (get "exec.mlir_ms");
      c "exec.steps";
      m ~unit_:"words" "exec.alloc_words" (get "exec.alloc_words");
      c "exec.tier.tree";
      c "exec.tier.plan";
      c "exec.tier.bytecode";
      c "compile.history_dependent";
    ]
  @ List.map
      (fun (name, unit_) ->
        m ~unit_ name (Option.value ~default:0.0 (List.assoc_opt name serve)))
      [
        ("serve.parse_ms", "ms");
        ("serve.pool_speedup", "ratio");
        ("serve.coalesced", "count");
        ("serve.retries", "count");
        ("serve.done", "count");
        ("serve.failed", "count");
        ("serve.rejected", "count");
        ("serve.shed", "count");
        ("serve.journal_divergence", "count");
      ]
  @ [
      c "gc.minor_collections";
      c "gc.major_collections";
      m ~unit_:"words" "gc.alloc_words" (get "gc.alloc_words");
      m ~unit_:"ratio" "trace.overhead" overhead;
    ]

(* The first request whose response or journal entries differ between
   two reports, if any, and how many responses differ. *)
let journal_divergence (a : Engine.report) (b : Engine.report) :
    int * string option =
  if Json.to_string (Engine.replay_json a) = Json.to_string (Engine.replay_json b)
  then (0, None)
  else
    let rj (r : Sjournal.response) = Json.to_string (Sjournal.response_json r) in
    let rec first_response xs ys n first =
      match (xs, ys) with
      | x :: xs', y :: ys' ->
          if rj x = rj y then first_response xs' ys' n first
          else
            first_response xs' ys' (n + 1)
              (match first with None -> Some x.Sjournal.rs_id | s -> s)
      | x :: _, [] | [], x :: _ ->
          (n + 1, match first with None -> Some x.Sjournal.rs_id | s -> s)
      | [], [] -> (n, first)
    in
    match first_response a.rp_responses b.rp_responses 0 None with
    | 0, _ ->
        (* Same responses, different decision records. *)
        let id_of (e : Sjournal.entry) =
          match List.assoc_opt "id" e.sj_fields with
          | Some (Json.Str s) -> s
          | _ -> Printf.sprintf "seq %d" e.sj_seq
        in
        let rec first_entry xs ys =
          match (xs, ys) with
          | (x : Sjournal.entry) :: xs', (y : Sjournal.entry) :: ys' ->
              if x.sj_code = y.sj_code
                 && Json.to_string (Json.Obj x.sj_fields)
                    = Json.to_string (Json.Obj y.sj_fields)
              then first_entry xs' ys'
              else Some (id_of x)
          | x :: _, [] | [], x :: _ -> Some (id_of x)
          | [], [] -> None
        in
        (1, first_entry (Sjournal.entries a.rp_journal) (Sjournal.entries b.rp_journal))
    | n, first -> (n, first)

(* --trace 1: one untraced pass, then the same pass traced. *)
let traced (st : stats) (prep : prepared) ~(seed : int) :
    float * (string * float) list * (string * Json.t) list =
  let replay_ops = match prep with Ops l -> l | Serve b -> b.b_replay in
  let t = now () in
  op_pass st replay_ops;
  let untraced_s = now () -. t in
  let gc0 = Gc.quick_stat () and a0 = alloc_words () in
  tracing := true;
  let serve, engine_store, meta =
    match prep with
    | Ops _ -> ([], [], [])
    | Serve b ->
        ignore (span "serve.parse" (fun () -> Request.parse b.b_text));
        let engine_run workers =
          wall_ms (fun () ->
              span (Printf.sprintf "serve.engine.%dw" workers) (fun () ->
                  run_batch b ~seed ~workers))
        in
        let rp_n, t_n = engine_run nproc in
        let rp_1, t_1 = engine_run 1 in
        ignore (check_batch st b rp_n);
        ignore (check_batch st b rp_1);
        let divergent, first = journal_divergence rp_1 rp_n in
        Option.iter
          (fun id ->
            Printf.eprintf
              "serve.journal_divergence: %d response(s) differ between 1 \
               and %d workers; first divergent request %s\n%!"
              divergent nproc id)
          first;
        let count status =
          float_of_int
            (List.length
               (List.filter
                  (fun (r : Sjournal.response) -> r.rs_status = status)
                  rp_n.rp_responses))
        in
        let pc key =
          match List.assoc_opt key rp_n.rp_plan_cache with
          | Some (Json.Int n) -> float_of_int n
          | _ -> 0.0
        in
        ( [
            ("serve.parse_ms", self_ms "serve.parse");
            ("serve.pool_speedup", t_1 /. t_n);
            ("serve.coalesced", float_of_int rp_n.rp_coalesced);
            ("serve.retries", float_of_int (Sjournal.count_code rp_n.rp_journal "SRV-RETRY"));
            ("serve.done", count Sjournal.Done);
            ("serve.failed", count Sjournal.Failed);
            ("serve.rejected", count Sjournal.Rejected);
            ("serve.shed", float_of_int (Sjournal.count_code rp_n.rp_journal "SRV-SHED"));
            ("serve.journal_divergence", float_of_int divergent);
          ],
          (* The engine's own store, not the replay's. *)
          [
            ("plan_cache.hits", pc "hits");
            ("plan_cache.misses", pc "misses");
            ("plan_cache.evictions", pc "evictions");
          ],
          [
            ( "first_divergent_request",
              match first with Some id -> Json.Str id | None -> Json.Null );
          ] )
  in
  let t = now () in
  op_pass st replay_ops;
  let traced_s = now () -. t in
  tracing := false;
  List.iter (fun (k, v) -> Hashtbl.replace counters k v) engine_store;
  let gc1 = Gc.quick_stat () in
  Hashtbl.replace counters "gc.minor_collections"
    (float_of_int (gc1.minor_collections - gc0.minor_collections));
  Hashtbl.replace counters "gc.major_collections"
    (float_of_int (gc1.major_collections - gc0.major_collections));
  Hashtbl.replace counters "gc.alloc_words" (alloc_words () -. a0);
  (* Throughput lost to tracing, as a share of the untraced pass's. *)
  let overhead =
    if traced_s > 0.0 && untraced_s > 0.0 then 1.0 -. (untraced_s /. traced_s)
    else 0.0
  in
  (overhead, serve, meta)

(* ------------------------------------------------------------------ *)
(* Output *)

let json_float (f : float) : string =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let print_result ~(correct : bool) ~(attempted : int) ~(failed : int)
    (metrics : metric list) : unit =
  List.iter
    (fun m ->
      Printf.printf "%-34s %18.6f %-8s n=%d\n" m.name m.value m.unit_ m.samples)
    metrics;
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_float m.value) m.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let usage () =
  prerr_endline
    "usage: bench.exe --workload (polybench-sweep|fuzz-cold|serve-mixed|autopar-par) \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec scan = function
    | "--workload" :: v :: rest -> workload := Some v; scan rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; scan rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; scan rest
    | "--trace" :: v :: rest -> trace := int_of_string_opt v; scan rest
    | [] -> ()
    | _ -> usage ()
  in
  scan (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some ((0 | 1) as trace) ->
      if
        not
          (List.mem workload
             [ "polybench-sweep"; "fuzz-cold"; "serve-mixed"; "autopar-par" ])
      then usage ();
      if workload = "autopar-par" then clock := now;
      (* The single-domain workloads' end-to-end times are scaled to the
         reference host speed; autopar-par's wall times are not. *)
      if trace = 0 && workload <> "autopar-par" then start_calibration ();
      let setups =
        List.init setup_reps (fun _ ->
            timed (fun () -> setup workload seed))
      in
      Printf.printf
        "# workload=%s seed=%d seconds=%g trace=%d nproc=%d \
         serve_workers=1 pool_check_workers=%d autopar_jobs=%d ocaml=%s\n%!"
        workload seed seconds trace nproc nproc nproc Sys.ocaml_version;
      let prep = fst (List.hd (List.rev setups)) in
      let setup = List.map snd setups in
      let st = new_stats () in
      let metrics =
        if trace = 0 then
          let passes, cycles = measure st prep ~seed ~seconds in
          stop_calibration ();
          if !cal_count > 0 then
            Printf.eprintf
              "host speed: %d calibration slices, median %.4f ms (reference %.2f ms)\n%!"
              !cal_count
              (median (Array.to_list (Array.sub !cal_slices 0 !cal_count)))
              cal_nominal_ms;
          end_to_end ~setup st ~passes ~cycles
        else begin
          let overhead, serve, meta = traced st prep ~seed in
          let dir = Filename.concat "perfbench" "out" in
          (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
          let path =
            Filename.concat dir (Printf.sprintf "%s-seed%d.trace.json" workload seed)
          in
          write_trace path
            ([
               ("workload", Json.Str workload);
               ("seed", Json.Int seed);
               ("nproc", Json.Int nproc);
               ("ocaml", Json.Str Sys.ocaml_version);
             ]
            @ meta);
          Printf.eprintf "trace written to %s\n%!" path;
          per_layer ~overhead ~serve
        end
      in
      let failures = List.rev st.failures in
      List.iter (fun f -> Printf.eprintf "FAIL %s\n" f) failures;
      let failed = List.length failures in
      print_result ~correct:(failed = 0) ~attempted:st.attempted ~failed metrics
  | _ -> usage ()
