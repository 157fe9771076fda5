(** MLIR interpreter over the simulated machine.

    Executes the core dialects ([func], [scf], [arith], [math], [memref])
    against {!Dcir_machine.Machine}, charging the cost model for every
    operation and memory access. This is how "compiled binaries" run in this
    reproduction: each compiler proxy optimizes the IR with its own pass set
    and then executes here, so cycle counts reflect exactly the work its IR
    still performs.

    Semantics notes:
    - [arith.divsi]/[remsi] truncate toward zero (C semantics, matching what
      Polygeist emits for C division);
    - integer widths are not modeled (OCaml [int] everywhere) — the C subset
      used by the benchmarks never relies on wraparound. *)

open Dcir_machine

type bufinfo = { buf : Machine.buffer; dims : int array }
type rtval = Scalar of Value.t | Buf of bufinfo

exception Trap of string

let trap fmt = Fmt.kstr (fun s -> raise (Trap s)) fmt

(** Control outcome of one compiled op (see the compiled layer below). *)
type kctrl =
  | KContinue
  | KReturn of Value.t list  (** [func.return] reached *)
  | KYield of rtval list  (** [scf.yield] reached *)

(** One activation of a compiled function: its SSA values, indexed by the
    slots {!get_cfunc} assigns. *)
type frame = rtval array

type cfunc = {
  cf_func : Ir.func;
  cf_body : (frame -> kctrl) array;
  cf_args : int list;  (** slots of the entry-block arguments *)
  cf_nslots : int;  (** frame size: every SSA value the body names *)
}

type env = {
  machine : Machine.t;
  budget : Dcir_resilience.Budget.t;
      (** the machine's budget, cached; charged one step per executed op
          in both tree and compiled modes so the two trap identically *)
  modul : Ir.modul;
  mutable bindings : (int, rtval) Hashtbl.t;
      (** tree walker only: vid -> runtime value of the current call *)
  mutable call_depth : int;
  profile : Dcir_obs.Obs.Profile.t option;
      (** when set, per-function inclusive cycles/loads/stores *)
  cfuncs : (string, cfunc) Hashtbl.t;
      (** compiled-mode cache: function name -> compiled body *)
}

let bind (env : env) (v : Ir.value) (rv : rtval) : unit =
  Hashtbl.replace env.bindings v.vid rv

let lookup (env : env) (v : Ir.value) : rtval =
  match Hashtbl.find_opt env.bindings v.vid with
  | Some rv -> rv
  | None -> trap "unbound SSA value %s" (Printer.value_name v)

let scalar (env : env) (v : Ir.value) : Value.t =
  match lookup env v with
  | Scalar s -> s
  | Buf _ -> trap "expected scalar, got memref (%s)" (Printer.value_name v)

let int_of (env : env) (v : Ir.value) : int = Value.as_int (scalar env v)
let float_of (env : env) (v : Ir.value) : float = Value.as_float (scalar env v)

let buffer (env : env) (v : Ir.value) : bufinfo =
  match lookup env v with
  | Buf b -> b
  | Scalar _ -> trap "expected memref, got scalar (%s)" (Printer.value_name v)

(* Row-major linearization; charges (ndims-1) fused index ops, matching what
   compiled addressing would execute. *)
let linearize (env : env) (b : bufinfo) (indices : int list) : int =
  let n = Array.length b.dims in
  if List.length indices <> n then
    trap "index count %d does not match rank %d" (List.length indices) n;
  let lin = ref 0 in
  List.iteri
    (fun k idx ->
      if k > 0 then Machine.charge_op env.machine Int_alu;
      lin := (!lin * b.dims.(k)) + idx)
    indices;
  !lin

let zero_of (ty : Types.t) : Value.t =
  if Types.is_float ty then Value.VFloat 0.0 else Value.VInt 0

(* ------------------------------------------------------------------ *)
(* arith evaluation *)

let eval_cmpi (pred : string) (x : int) (y : int) : bool =
  match pred with
  | "eq" -> x = y
  | "ne" -> x <> y
  | "slt" | "ult" -> x < y
  | "sle" | "ule" -> x <= y
  | "sgt" | "ugt" -> x > y
  | "sge" | "uge" -> x >= y
  | p -> trap "unknown cmpi predicate %s" p

let eval_cmpf (pred : string) (x : float) (y : float) : bool =
  match pred with
  | "oeq" | "ueq" -> x = y
  | "one" | "une" -> x <> y
  | "olt" | "ult" -> x < y
  | "ole" | "ule" -> x <= y
  | "ogt" | "ugt" -> x > y
  | "oge" | "uge" -> x >= y
  | p -> trap "unknown cmpf predicate %s" p

(* ------------------------------------------------------------------ *)

let rec exec_ops (env : env) (ops : Ir.op list) : Value.t list option =
  (* Returns [Some vals] when a terminator produced function results. *)
  match ops with
  | [] -> None
  | o :: rest -> (
      Dcir_resilience.Budget.step env.budget;
      match exec_op env o with
      | `Return vals -> Some vals
      | `Continue -> exec_ops env rest)

and exec_op (env : env) (o : Ir.op) : [ `Return of Value.t list | `Continue ]
    =
  let m = env.machine in
  let charge_class () =
    match Arith.cost_class o.name with
    | Some c -> Machine.charge_op m c
    | None -> (
        match Math_d.cost_class o.name with
        | Some c -> Machine.charge_op m c
        | None -> ())
  in
  match o.name with
  | "func.return" -> `Return (List.map (scalar_or_unit env) o.operands)
  | "arith.constant" ->
      (match Ir.attr o "value" with
      | Some (Attr.AInt n) -> bind env (Ir.result o) (Scalar (VInt n))
      | Some (Attr.AFloat f) -> bind env (Ir.result o) (Scalar (VFloat f))
      | _ -> trap "arith.constant without value attr");
      `Continue
  | "arith.addi" | "arith.subi" | "arith.muli" | "arith.divsi" | "arith.remsi"
  | "arith.andi" | "arith.ori" | "arith.xori" | "arith.maxsi" | "arith.minsi"
    ->
      charge_class ();
      let x = int_of env (List.nth o.operands 0)
      and y = int_of env (List.nth o.operands 1) in
      let r =
        match o.name with
        | "arith.addi" -> x + y
        | "arith.subi" -> x - y
        | "arith.muli" -> x * y
        | "arith.divsi" ->
            if y = 0 then trap "integer division by zero" else x / y
        | "arith.remsi" ->
            if y = 0 then trap "integer remainder by zero" else x mod y
        | "arith.andi" -> x land y
        | "arith.ori" -> x lor y
        | "arith.xori" -> x lxor y
        | "arith.maxsi" -> max x y
        | _ -> min x y
      in
      bind env (Ir.result o) (Scalar (VInt r));
      `Continue
  | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" | "arith.maxf"
  | "arith.minf" ->
      charge_class ();
      let x = float_of env (List.nth o.operands 0)
      and y = float_of env (List.nth o.operands 1) in
      let r =
        match o.name with
        | "arith.addf" -> x +. y
        | "arith.subf" -> x -. y
        | "arith.mulf" -> x *. y
        | "arith.divf" -> x /. y
        | "arith.maxf" -> Float.max x y
        | _ -> Float.min x y
      in
      bind env (Ir.result o) (Scalar (VFloat r));
      `Continue
  | "arith.negf" ->
      charge_class ();
      bind env (Ir.result o)
        (Scalar (VFloat (-.float_of env (List.hd o.operands))));
      `Continue
  | "arith.cmpi" ->
      charge_class ();
      let pred = Option.value ~default:"eq" (Ir.str_attr o "predicate") in
      let x = int_of env (List.nth o.operands 0)
      and y = int_of env (List.nth o.operands 1) in
      bind env (Ir.result o) (Scalar (Value.of_bool (eval_cmpi pred x y)));
      `Continue
  | "arith.cmpf" ->
      charge_class ();
      let pred = Option.value ~default:"oeq" (Ir.str_attr o "predicate") in
      let x = float_of env (List.nth o.operands 0)
      and y = float_of env (List.nth o.operands 1) in
      bind env (Ir.result o) (Scalar (Value.of_bool (eval_cmpf pred x y)));
      `Continue
  | "arith.select" ->
      charge_class ();
      let c = int_of env (List.nth o.operands 0) in
      let v = lookup env (List.nth o.operands (if c <> 0 then 1 else 2)) in
      bind env (Ir.result o) v;
      `Continue
  | "arith.index_cast" ->
      charge_class ();
      bind env (Ir.result o) (lookup env (List.hd o.operands));
      `Continue
  | "arith.sitofp" ->
      charge_class ();
      bind env (Ir.result o)
        (Scalar (VFloat (float_of_int (int_of env (List.hd o.operands)))));
      `Continue
  | "arith.fptosi" ->
      charge_class ();
      let f = float_of env (List.hd o.operands) in
      let n =
        (* Truncation toward zero; NaN/out-of-range traps (matching the
           SDFG interpreter's ToInt). *)
        try Value.int_of_float_trunc f
        with Invalid_argument msg -> trap "%s" msg
      in
      bind env (Ir.result o) (Scalar (VInt n));
      `Continue
  | "arith.extf" | "arith.truncf" ->
      charge_class ();
      bind env (Ir.result o) (lookup env (List.hd o.operands));
      `Continue
  | name when Math_d.is_math_op name ->
      charge_class ();
      let args = List.map (float_of env) o.operands in
      bind env (Ir.result o) (Scalar (VFloat (Math_d.eval name args)));
      `Continue
  | "memref.alloc" | "memref.alloca" ->
      let res = Ir.result o in
      let elem = Types.elem_type res.vty in
      let dyn = ref (List.map (int_of env) o.operands) in
      let dims =
        List.map
          (function
            | Types.Static n -> n
            | Types.Dynamic -> (
                match !dyn with
                | d :: rest ->
                    dyn := rest;
                    d
                | [] -> trap "memref.alloc: missing dynamic size")
            | Types.SymDim _ -> trap "memref.alloc: symbolic dim at runtime")
          (Types.dims res.vty)
      in
      let elems = List.fold_left ( * ) 1 dims in
      let storage =
        if String.equal o.name "memref.alloc" then Machine.Heap
        else Machine.Stack
      in
      let buf =
        Machine.alloc m ~storage ~elems ~elem_bytes:(Types.byte_width elem)
          ~zero_init:(zero_of elem)
      in
      bind env res (Buf { buf; dims = Array.of_list dims });
      `Continue
  | "memref.dealloc" ->
      let b = buffer env (List.hd o.operands) in
      Machine.free m b.buf;
      `Continue
  | "memref.load" ->
      let mr, idxs = Memref_d.load_parts o in
      let b = buffer env mr in
      let lin = linearize env b (List.map (int_of env) idxs) in
      bind env (Ir.result o) (Scalar (Machine.load m b.buf lin));
      `Continue
  | "memref.store" ->
      let v, mr, idxs = Memref_d.store_parts o in
      let b = buffer env mr in
      let lin = linearize env b (List.map (int_of env) idxs) in
      Machine.store m b.buf lin (scalar env v);
      `Continue
  | "memref.dim" ->
      let b = buffer env (List.hd o.operands) in
      let k = Option.value ~default:0 (Ir.int_attr o "index") in
      if k < 0 || k >= Array.length b.dims then trap "memref.dim out of range";
      bind env (Ir.result o) (Scalar (VInt b.dims.(k)));
      `Continue
  | "scf.for" ->
      let lb, ub, step = Scf_d.loop_bounds o in
      let lbv = int_of env lb
      and ubv = int_of env ub
      and stepv = int_of env step in
      if stepv <= 0 then trap "scf.for: non-positive step %d" stepv;
      let body = Scf_d.loop_body o in
      let iv, carried_args =
        match body.rargs with
        | iv :: rest -> (iv, rest)
        | [] -> trap "scf.for: missing induction variable"
      in
      let carried = ref (List.map (lookup env) (Scf_d.loop_iter_inits o)) in
      let i = ref lbv in
      while !i < ubv do
        (* Loop control: induction increment + compare&branch. *)
        Machine.charge_op m Int_alu;
        Machine.charge_op m Branch;
        bind env iv (Scalar (VInt !i));
        List.iter2 (fun arg v -> bind env arg v) carried_args !carried;
        (match exec_region_with_yield env body.rops with
        | Some vals -> carried := vals
        | None -> if carried_args <> [] then trap "scf.for: missing yield");
        i := !i + stepv
      done;
      List.iter2 (fun res v -> bind env res v) o.results !carried;
      `Continue
  | "scf.if" ->
      Machine.charge_op m Branch;
      let c = int_of env (List.hd o.operands) in
      let then_r, else_r = Scf_d.if_regions o in
      let chosen = if c <> 0 then then_r else else_r in
      (match exec_region_with_yield env chosen.rops with
      | Some vals -> List.iter2 (fun res v -> bind env res v) o.results vals
      | None ->
          if o.results <> [] then trap "scf.if: branch yielded no values");
      `Continue
  | "scf.yield" -> trap "scf.yield outside structured execution"
  | "func.call" -> (
      let callee = Option.value ~default:"" (Func_d.callee o) in
      match Ir.find_func env.modul callee with
      | None -> trap "call to unknown function @%s" callee
      | Some f ->
          (* Call overhead: frame setup + argument moves. *)
          Machine.charge m 20.0;
          List.iter (fun _ -> Machine.charge_op m Move) o.operands;
          let args = List.map (lookup env) o.operands in
          let results = call_func env f args in
          List.iter2 (fun res v -> bind env res (Scalar v)) o.results results;
          `Continue)
  | name -> trap "interpreter: unsupported operation %s" name

(* Execute ops until an scf.yield; return its operand values. *)
and exec_region_with_yield (env : env) (ops : Ir.op list) :
    rtval list option =
  let rec go = function
    | [] -> None
    | o :: rest ->
        Dcir_resilience.Budget.step env.budget;
        if String.equal o.Ir.name "scf.yield" then
          Some (List.map (lookup env) o.operands)
        else (
          (match exec_op env o with
          | `Return _ -> trap "func.return inside structured control flow"
          | `Continue -> ());
          go rest)
  in
  go ops

and scalar_or_unit (env : env) (v : Ir.value) : Value.t =
  match lookup env v with
  | Scalar s -> s
  | Buf _ -> trap "returning a memref from a function is not supported"

and call_func (env : env) (f : Ir.func) (args : rtval list) : Value.t list =
  if env.call_depth > 256 then trap "call depth exceeded";
  match f.fbody with
  | None -> trap "call to external function @%s" f.fname
  | Some r ->
      if List.length r.rargs <> List.length args then
        trap "@%s: argument count mismatch" f.fname;
      env.call_depth <- env.call_depth + 1;
      (* Each activation binds into its own scope, so a recursive call
         cannot overwrite the caller's values that are live across it. *)
      let caller = env.bindings in
      env.bindings <- Hashtbl.create 256;
      List.iter2 (fun p a -> bind env p a) r.rargs args;
      let snap =
        match env.profile with
        | None -> None
        | Some _ ->
            let mt = Machine.metrics env.machine in
            Some (mt.cycles, mt.loads, mt.stores)
      in
      let result = exec_ops env r.rops in
      (match (env.profile, snap) with
      | Some p, Some (c0, l0, s0) ->
          let mt = Machine.metrics env.machine in
          Dcir_obs.Obs.Profile.record p ~kind:"func" ~name:f.fname
            ~cycles:(mt.cycles -. c0) ~loads:(mt.loads - l0)
            ~stores:(mt.stores - s0)
      | _ -> ());
      env.bindings <- caller;
      env.call_depth <- env.call_depth - 1;
      (match result with Some vals -> vals | None -> [])

(* ------------------------------------------------------------------ *)
(* Compiled execution: each function body is translated once per [env]
   into an array of OCaml closures, then replayed. Compilation gives
   every SSA value the body names — entry-block arguments, op results,
   [scf.for]/[scf.if] region arguments and results — a slot in the
   function's frame, so closures capture plain slot indices alongside
   the pre-resolved attributes, cost classes and nested regions. Each
   call runs in its own frame with every slot unbound, so a recursive
   activation cannot clobber its caller's live values. The charge,
   budget-step and trap sequence is kept exactly identical to the
   tree-walking [exec_op] above, so outputs and machine metrics are
   bit-for-bit the same in both modes. *)

type mode = Tree | Compiled

(* The content of every slot not yet written in this activation: a block
   of its own, compared physically, so no runtime value can be taken for
   it. *)
let unbound : rtval = Scalar (VInt (Sys.opaque_identity 0))

(* Frame readers. Their traps are the tree walker's, in its order: an
   unbound value first, then the scalar/memref check. *)
let unbound_trap (v : Ir.value) =
  trap "unbound SSA value %s" (Printer.value_name v)

let get (fr : frame) (s : int) (v : Ir.value) : rtval =
  let rv = fr.(s) in
  if rv == unbound then unbound_trap v else rv

let fscalar (fr : frame) (s : int) (v : Ir.value) : Value.t =
  match fr.(s) with
  | Scalar x as rv -> if rv == unbound then unbound_trap v else x
  | Buf _ -> trap "expected scalar, got memref (%s)" (Printer.value_name v)

let fint (fr : frame) (s : int) (v : Ir.value) : int =
  match fr.(s) with
  | Scalar (VInt n) as rv when rv != unbound -> n
  | _ -> Value.as_int (fscalar fr s v)

let ffloat (fr : frame) (s : int) (v : Ir.value) : float =
  match fr.(s) with
  | Scalar (VFloat f) -> f
  | _ -> Value.as_float (fscalar fr s v)

let fbuffer (fr : frame) (s : int) (v : Ir.value) : bufinfo =
  match fr.(s) with
  | Buf b -> b
  | rv ->
      if rv == unbound then unbound_trap v
      else trap "expected memref, got scalar (%s)" (Printer.value_name v)

(* [linearize] without the index list for rank-1 and rank-2 accesses, in
   its exact order: indices read left to right, then the rank check, then
   one [Int_alu] per extra dimension. *)
let compile_index (env : env) (idxs : (int * Ir.value) list) :
    frame -> bufinfo -> int =
  let rank_trap n b =
    trap "index count %d does not match rank %d" n (Array.length b.dims)
  in
  match idxs with
  | [ (s0, v0) ] ->
      fun fr b ->
        let i0 = fint fr s0 v0 in
        if Array.length b.dims <> 1 then rank_trap 1 b;
        i0
  | [ (s0, v0); (s1, v1) ] ->
      let m = env.machine in
      fun fr b ->
        let i0 = fint fr s0 v0 in
        let i1 = fint fr s1 v1 in
        if Array.length b.dims <> 2 then rank_trap 2 b;
        Machine.charge_op m Int_alu;
        (i0 * b.dims.(1)) + i1
  | _ ->
      fun fr b -> linearize env b (List.map (fun (s, v) -> fint fr s v) idxs)

(* Run a compiled op sequence until a terminator produces control.
   Charges one budget step per executed closure — the compiled-mode twin
   of the per-op charge in [exec_ops]/[exec_region_with_yield]. *)
let run_seq (budget : Dcir_resilience.Budget.t) (fr : frame)
    (ops : (frame -> kctrl) array) : kctrl =
  let n = Array.length ops in
  let rec go i =
    if i = n then KContinue
    else begin
      Dcir_resilience.Budget.step budget;
      match ops.(i) fr with KContinue -> go (i + 1) | c -> c
    end
  in
  go 0

(* Per-function compilation state: the slot of each SSA value, by vid. *)
type cctx = { env : env; slots : (int, int) Hashtbl.t }

let slot (cx : cctx) (v : Ir.value) : int =
  match Hashtbl.find_opt cx.slots v.vid with
  | Some s -> s
  | None ->
      let s = Hashtbl.length cx.slots in
      Hashtbl.add cx.slots v.vid s;
      s

let uses (cx : cctx) (vs : Ir.value list) : (int * Ir.value) list =
  List.map (fun v -> (slot cx v, v)) vs

let rec compile_op (cx : cctx) ~(structured : bool) (o : Ir.op) :
    frame -> kctrl =
  let env = cx.env in
  let m = env.machine in
  let charge_class =
    match Arith.cost_class o.name with
    | Some c -> fun () -> Machine.charge_op m c
    | None -> (
        match Math_d.cost_class o.name with
        | Some c -> fun () -> Machine.charge_op m c
        | None -> fun () -> ())
  in
  let use1 v = (slot cx v, v) in
  match o.name with
  | "func.return" ->
      if structured then fun _ ->
        trap "func.return inside structured control flow"
      else
        let operands = uses cx o.operands in
        fun fr ->
          KReturn
            (List.map
               (fun (s, v) ->
                 match get fr s v with
                 | Scalar x -> x
                 | Buf _ ->
                     trap "returning a memref from a function is not supported")
               operands)
  | "scf.yield" ->
      if structured then
        let operands = uses cx o.operands in
        fun fr -> KYield (List.map (fun (s, v) -> get fr s v) operands)
      else fun _ -> trap "scf.yield outside structured execution"
  | "arith.constant" -> (
      let r = slot cx (Ir.result o) in
      match Ir.attr o "value" with
      | Some (Attr.AInt n) ->
          let v = Scalar (VInt n) in
          fun fr ->
            fr.(r) <- v;
            KContinue
      | Some (Attr.AFloat f) ->
          let v = Scalar (VFloat f) in
          fun fr ->
            fr.(r) <- v;
            KContinue
      | _ -> fun _ -> trap "arith.constant without value attr")
  | "arith.addi" | "arith.subi" | "arith.muli" | "arith.divsi" | "arith.remsi"
  | "arith.andi" | "arith.ori" | "arith.xori" | "arith.maxsi" | "arith.minsi"
    ->
      let xs, x_v = use1 (List.nth o.operands 0) in
      let ys, y_v = use1 (List.nth o.operands 1) in
      let r = slot cx (Ir.result o) in
      let f : int -> int -> int =
        match o.name with
        | "arith.addi" -> ( + )
        | "arith.subi" -> ( - )
        | "arith.muli" -> ( * )
        | "arith.divsi" ->
            fun x y ->
              if y = 0 then trap "integer division by zero" else x / y
        | "arith.remsi" ->
            fun x y ->
              if y = 0 then trap "integer remainder by zero" else x mod y
        | "arith.andi" -> ( land )
        | "arith.ori" -> ( lor )
        | "arith.xori" -> ( lxor )
        | "arith.maxsi" -> max
        | _ -> min
      in
      fun fr ->
        charge_class ();
        let x = fint fr xs x_v in
        let y = fint fr ys y_v in
        fr.(r) <- Scalar (VInt (f x y));
        KContinue
  | "arith.addf" | "arith.subf" | "arith.mulf" | "arith.divf" | "arith.maxf"
  | "arith.minf" ->
      let xs, x_v = use1 (List.nth o.operands 0) in
      let ys, y_v = use1 (List.nth o.operands 1) in
      let r = slot cx (Ir.result o) in
      let f : float -> float -> float =
        match o.name with
        | "arith.addf" -> ( +. )
        | "arith.subf" -> ( -. )
        | "arith.mulf" -> ( *. )
        | "arith.divf" -> ( /. )
        | "arith.maxf" -> Float.max
        | _ -> Float.min
      in
      fun fr ->
        charge_class ();
        let x = ffloat fr xs x_v in
        let y = ffloat fr ys y_v in
        fr.(r) <- Scalar (VFloat (f x y));
        KContinue
  | "arith.negf" ->
      let xs, x_v = use1 (List.hd o.operands) in
      let r = slot cx (Ir.result o) in
      fun fr ->
        charge_class ();
        fr.(r) <- Scalar (VFloat (-.ffloat fr xs x_v));
        KContinue
  | "arith.cmpi" ->
      let pred = Option.value ~default:"eq" (Ir.str_attr o "predicate") in
      let xs, x_v = use1 (List.nth o.operands 0) in
      let ys, y_v = use1 (List.nth o.operands 1) in
      let r = slot cx (Ir.result o) in
      fun fr ->
        charge_class ();
        let x = fint fr xs x_v in
        let y = fint fr ys y_v in
        fr.(r) <- Scalar (Value.of_bool (eval_cmpi pred x y));
        KContinue
  | "arith.cmpf" ->
      let pred = Option.value ~default:"oeq" (Ir.str_attr o "predicate") in
      let xs, x_v = use1 (List.nth o.operands 0) in
      let ys, y_v = use1 (List.nth o.operands 1) in
      let r = slot cx (Ir.result o) in
      fun fr ->
        charge_class ();
        let x = ffloat fr xs x_v in
        let y = ffloat fr ys y_v in
        fr.(r) <- Scalar (Value.of_bool (eval_cmpf pred x y));
        KContinue
  | "arith.select" ->
      let cs, c_v = use1 (List.nth o.operands 0) in
      let ts, t_v = use1 (List.nth o.operands 1) in
      let fs, f_v = use1 (List.nth o.operands 2) in
      let r = slot cx (Ir.result o) in
      fun fr ->
        charge_class ();
        let c = fint fr cs c_v in
        fr.(r) <- (if c <> 0 then get fr ts t_v else get fr fs f_v);
        KContinue
  | "arith.index_cast" | "arith.extf" | "arith.truncf" ->
      let xs, x_v = use1 (List.hd o.operands) in
      let r = slot cx (Ir.result o) in
      fun fr ->
        charge_class ();
        fr.(r) <- get fr xs x_v;
        KContinue
  | "arith.sitofp" ->
      let xs, x_v = use1 (List.hd o.operands) in
      let r = slot cx (Ir.result o) in
      fun fr ->
        charge_class ();
        fr.(r) <- Scalar (VFloat (float_of_int (fint fr xs x_v)));
        KContinue
  | "arith.fptosi" ->
      let xs, x_v = use1 (List.hd o.operands) in
      let r = slot cx (Ir.result o) in
      fun fr ->
        charge_class ();
        let f = ffloat fr xs x_v in
        let n =
          try Value.int_of_float_trunc f
          with Invalid_argument msg -> trap "%s" msg
        in
        fr.(r) <- Scalar (VInt n);
        KContinue
  | name when Math_d.is_math_op name ->
      let operands = uses cx o.operands in
      let r = slot cx (Ir.result o) in
      fun fr ->
        charge_class ();
        let args = List.map (fun (s, v) -> ffloat fr s v) operands in
        fr.(r) <- Scalar (VFloat (Math_d.eval name args));
        KContinue
  | "memref.alloc" | "memref.alloca" ->
      let res = Ir.result o in
      let r = slot cx res in
      let elem = Types.elem_type res.vty in
      let dim_tmpl = Types.dims res.vty in
      let operands = uses cx o.operands in
      let storage =
        if String.equal o.name "memref.alloc" then Machine.Heap
        else Machine.Stack
      in
      let elem_bytes = Types.byte_width elem in
      let zero = zero_of elem in
      fun fr ->
        let dyn = ref (List.map (fun (s, v) -> fint fr s v) operands) in
        let dims =
          List.map
            (function
              | Types.Static n -> n
              | Types.Dynamic -> (
                  match !dyn with
                  | d :: rest ->
                      dyn := rest;
                      d
                  | [] -> trap "memref.alloc: missing dynamic size")
              | Types.SymDim _ -> trap "memref.alloc: symbolic dim at runtime")
            dim_tmpl
        in
        let elems = List.fold_left ( * ) 1 dims in
        let buf =
          Machine.alloc m ~storage ~elems ~elem_bytes ~zero_init:zero
        in
        fr.(r) <- Buf { buf; dims = Array.of_list dims };
        KContinue
  | "memref.dealloc" ->
      let xs, x_v = use1 (List.hd o.operands) in
      fun fr ->
        Machine.free m (fbuffer fr xs x_v).buf;
        KContinue
  | "memref.load" ->
      let mr, idxs = Memref_d.load_parts o in
      let ms = slot cx mr in
      let index = compile_index env (uses cx idxs) in
      let r = slot cx (Ir.result o) in
      fun fr ->
        let b = fbuffer fr ms mr in
        let lin = index fr b in
        fr.(r) <- Scalar (Machine.load m b.buf lin);
        KContinue
  | "memref.store" ->
      let v, mr, idxs = Memref_d.store_parts o in
      let vs = slot cx v and ms = slot cx mr in
      let index = compile_index env (uses cx idxs) in
      fun fr ->
        let b = fbuffer fr ms mr in
        let lin = index fr b in
        Machine.store m b.buf lin (fscalar fr vs v);
        KContinue
  | "memref.dim" ->
      let xs, x_v = use1 (List.hd o.operands) in
      let k = Option.value ~default:0 (Ir.int_attr o "index") in
      let r = slot cx (Ir.result o) in
      fun fr ->
        let b = fbuffer fr xs x_v in
        if k < 0 || k >= Array.length b.dims then
          trap "memref.dim out of range";
        fr.(r) <- Scalar (VInt b.dims.(k));
        KContinue
  | "scf.for" ->
      let lb, ub, step = Scf_d.loop_bounds o in
      let lbs = slot cx lb and ubs = slot cx ub and steps = slot cx step in
      let body = Scf_d.loop_body o in
      let iv, carried_args =
        match body.rargs with
        | iv :: rest -> (slot cx iv, List.map (slot cx) rest)
        | [] -> trap "scf.for: missing induction variable"
      in
      let inits = uses cx (Scf_d.loop_iter_inits o) in
      let results = List.map (slot cx) o.results in
      let cbody = compile_ops cx ~structured:true body.rops in
      let budget = env.budget in
      fun fr ->
        let lbv = fint fr lbs lb in
        let ubv = fint fr ubs ub in
        let stepv = fint fr steps step in
        if stepv <= 0 then trap "scf.for: non-positive step %d" stepv;
        let carried = ref (List.map (fun (s, v) -> get fr s v) inits) in
        let i = ref lbv in
        while !i < ubv do
          Machine.charge_op m Int_alu;
          Machine.charge_op m Branch;
          fr.(iv) <- Scalar (VInt !i);
          List.iter2 (fun s v -> fr.(s) <- v) carried_args !carried;
          (match run_seq budget fr cbody with
          | KYield vals -> carried := vals
          | KContinue ->
              if carried_args <> [] then trap "scf.for: missing yield"
          | KReturn _ -> assert false (* func.return compiles to a trap *));
          i := !i + stepv
        done;
        List.iter2 (fun s v -> fr.(s) <- v) results !carried;
        KContinue
  | "scf.if" ->
      let cs, c_v = use1 (List.hd o.operands) in
      let then_r, else_r = Scf_d.if_regions o in
      let cthen = compile_ops cx ~structured:true then_r.rops in
      let celse = compile_ops cx ~structured:true else_r.rops in
      let results = List.map (slot cx) o.results in
      let budget = env.budget in
      fun fr ->
        Machine.charge_op m Branch;
        let c = fint fr cs c_v in
        let chosen = if c <> 0 then cthen else celse in
        (match run_seq budget fr chosen with
        | KYield vals -> List.iter2 (fun s v -> fr.(s) <- v) results vals
        | KContinue ->
            if results <> [] then trap "scf.if: branch yielded no values"
        | KReturn _ -> assert false);
        KContinue
  | "func.call" ->
      let callee = Option.value ~default:"" (Func_d.callee o) in
      let operands = uses cx o.operands in
      let results = List.map (slot cx) o.results in
      fun fr -> (
        (* Resolved per call, like the tree walker; the compiled body is
           memoized in [env.cfuncs] (lazily, so recursion terminates). *)
        match Ir.find_func env.modul callee with
        | None -> trap "call to unknown function @%s" callee
        | Some f ->
            Machine.charge m 20.0;
            List.iter (fun _ -> Machine.charge_op m Move) operands;
            let args = List.map (fun (s, v) -> get fr s v) operands in
            let rets = call_cfunc env (get_cfunc env f) args in
            List.iter2 (fun s v -> fr.(s) <- Scalar v) results rets;
            KContinue)
  | name -> fun _ -> trap "interpreter: unsupported operation %s" name

and compile_ops (cx : cctx) ~(structured : bool) (ops : Ir.op list) :
    (frame -> kctrl) array =
  Array.of_list (List.map (compile_op cx ~structured) ops)

and get_cfunc (env : env) (f : Ir.func) : cfunc =
  match Hashtbl.find_opt env.cfuncs f.fname with
  | Some cf -> cf
  | None ->
      let cf =
        match f.fbody with
        | None ->
            { cf_func = f; cf_body = [||]; cf_args = []; cf_nslots = 0 }
            (* external: trapped at call time, like the tree walker *)
        | Some r ->
            let cx = { env; slots = Hashtbl.create 64 } in
            let cf_args = List.map (slot cx) r.rargs in
            let cf_body = compile_ops cx ~structured:false r.rops in
            let cf_nslots = Hashtbl.length cx.slots in
            { cf_func = f; cf_body; cf_args; cf_nslots }
      in
      Hashtbl.replace env.cfuncs f.fname cf;
      cf

(* Mirrors [call_func] exactly: depth check, argument binding into the
   activation's fresh frame, profile snapshot/record. *)
and call_cfunc (env : env) (cf : cfunc) (args : rtval list) : Value.t list =
  if env.call_depth > 256 then trap "call depth exceeded";
  match cf.cf_func.fbody with
  | None -> trap "call to external function @%s" cf.cf_func.fname
  | Some _ ->
      if List.length cf.cf_args <> List.length args then
        trap "@%s: argument count mismatch" cf.cf_func.fname;
      env.call_depth <- env.call_depth + 1;
      let fr = Array.make cf.cf_nslots unbound in
      List.iter2 (fun s a -> fr.(s) <- a) cf.cf_args args;
      let snap =
        match env.profile with
        | None -> None
        | Some _ ->
            let mt = Machine.metrics env.machine in
            Some (mt.cycles, mt.loads, mt.stores)
      in
      let result =
        match run_seq env.budget fr cf.cf_body with
        | KReturn vals -> Some vals
        | KContinue -> None
        | KYield _ -> assert false (* scf.yield compiles to a trap here *)
      in
      (match (env.profile, snap) with
      | Some p, Some (c0, l0, s0) ->
          let mt = Machine.metrics env.machine in
          Dcir_obs.Obs.Profile.record p ~kind:"func" ~name:cf.cf_func.fname
            ~cycles:(mt.cycles -. c0) ~loads:(mt.loads - l0)
            ~stores:(mt.stores - s0)
      | _ -> ());
      env.call_depth <- env.call_depth - 1;
      (match result with Some vals -> vals | None -> [])

(* ------------------------------------------------------------------ *)

let make_env ?(profile : Dcir_obs.Obs.Profile.t option) (machine : Machine.t)
    (m : Ir.modul) : env =
  {
    machine;
    budget = Machine.budget machine;
    modul = m;
    bindings = Hashtbl.create 1;
    call_depth = 0;
    profile;
    cfuncs = Hashtbl.create 8;
  }

(** A persistent execution context for repeated invocations of one entry
    function — used by the SDFG engines' opaque tasklets so their MLIR
    body is compiled once per run instead of once per invocation. Each
    invocation runs in a fresh frame, like any call. *)
type prepared = { p_env : env; p_entry : Ir.func }

let prepare ?(profile : Dcir_obs.Obs.Profile.t option)
    ~(machine : Machine.t) (m : Ir.modul) ~(entry : string) : prepared =
  match Ir.find_func m entry with
  | None -> trap "entry function @%s not found" entry
  | Some f -> { p_env = make_env ?profile machine m; p_entry = f }

let run_prepared (p : prepared) (args : rtval list) : Value.t list =
  call_cfunc p.p_env (get_cfunc p.p_env p.p_entry) args

(** [run ?machine ?profile ?mode m ~entry args] executes function [entry] of
    module [m]. Returns the function results and the machine (with metrics).
    [profile] accumulates per-function inclusive cycles/loads/stores
    attribution (a callee's work is also counted in its callers).
    [mode] selects tree-walking or compiled execution (the default); both
    charge the machine identically. Every call, recursive ones included,
    binds its values in a scope of its own. *)
let run ?(machine : Machine.t option)
    ?(profile : Dcir_obs.Obs.Profile.t option) ?(mode : mode = Compiled)
    (m : Ir.modul) ~(entry : string) (args : rtval list) :
    Value.t list * Machine.t =
  let machine = match machine with Some x -> x | None -> Machine.create () in
  match Ir.find_func m entry with
  | None -> trap "entry function @%s not found" entry
  | Some f ->
      let env = make_env ?profile machine m in
      let results =
        match mode with
        | Tree -> call_func env f args
        | Compiled -> call_cfunc env (get_cfunc env f) args
      in
      (results, machine)
