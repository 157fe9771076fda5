(** Symbolic integer expressions.

    This is the reproduction of the role sympy plays inside DaCe: array sizes,
    memlet subsets, loop bounds, and interstate-edge conditions are all
    expressions over named symbols. The engine provides canonicalization
    (so that [N + N] and [2*N] compare equal), substitution, evaluation,
    and decision procedures used by validation and the data-centric passes.

    Convention inherited from DaCe: {b symbols denote non-negative integers}
    (they name array sizes and loop trip counts). Simplifications such as
    [N/N = 1] and sign reasoning in comparisons rely on it; expressions whose
    symbols may be negative must be encoded with explicit subtraction from
    constants. *)

type t =
  | Int of int
  | Sym of string
  | Add of t list  (** n-ary sum; canonical form is flat and sorted *)
  | Mul of t list  (** n-ary product; canonical form is flat and sorted *)
  | Div of t * t  (** floor division *)
  | Mod of t * t
  | Min of t * t
  | Max of t * t

let rec compare_expr (a : t) (b : t) : int =
  let c = Stdlib.compare (rank a) (rank b) in
  if c <> 0 then c else structural a b

and rank = function
  | Int _ -> 0
  | Sym _ -> 1
  | Add _ -> 2
  | Mul _ -> 3
  | Div _ -> 4
  | Mod _ -> 5
  | Min _ -> 6
  | Max _ -> 7

and structural a b =
  match (a, b) with
  | Int x, Int y -> Stdlib.compare x y
  | Sym x, Sym y -> Stdlib.compare x y
  | Add xs, Add ys | Mul xs, Mul ys -> compare_list xs ys
  | Div (x1, y1), Div (x2, y2)
  | Mod (x1, y1), Mod (x2, y2)
  | Min (x1, y1), Min (x2, y2)
  | Max (x1, y1), Max (x2, y2) ->
      let c = compare_expr x1 x2 in
      if c <> 0 then c else compare_expr y1 y2
  | _ -> 0

and compare_list xs ys =
  match (xs, ys) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: xs', y :: ys' ->
      let c = compare_expr x y in
      if c <> 0 then c else compare_list xs' ys'

let zero = Int 0
let one = Int 1
let int n = Int n
let sym s = Sym s

(* ------------------------------------------------------------------ *)
(* Canonicalization.

   Sums are normalized to a multiset of terms [coeff * atoms] where [atoms]
   is a sorted list of non-constant factors; products distribute over sums,
   so polynomials reach a canonical sum-of-monomials form. Opaque operators
   (Div, Mod, Min, Max) act as atoms with recursively simplified operands. *)

(* A monomial: integer coefficient times sorted atom list. *)
type monomial = int * t list

let monomial_key (atoms : t list) : t list = atoms

let rec simplify (e : t) : t =
  match e with
  | Int _ | Sym _ -> e
  | Add xs -> simplify_sum (List.map simplify xs)
  | Mul xs -> simplify_product (List.map simplify xs)
  | Div (a, b) -> simplify_div (simplify a) (simplify b)
  | Mod (a, b) -> simplify_mod (simplify a) (simplify b)
  | Min (a, b) -> simplify_min (simplify a) (simplify b)
  | Max (a, b) -> simplify_max (simplify a) (simplify b)

(* Decompose a simplified expression into monomials. *)
and to_monomials (e : t) : monomial list =
  match e with
  | Int 0 -> []
  | Int n -> [ (n, []) ]
  | Add xs -> List.concat_map to_monomials xs
  | Mul xs ->
      let coeff, atoms =
        List.fold_left
          (fun (c, ats) x ->
            match x with Int n -> (c * n, ats) | a -> (c, a :: ats))
          (1, []) xs
      in
      if coeff = 0 then [] else [ (coeff, List.sort compare_expr atoms) ]
  | atom -> [ (1, [ atom ]) ]

and of_monomials (ms : monomial list) : t =
  (* Combine like monomials. *)
  let tbl = Hashtbl.create 8 in
  let keys = ref [] in
  List.iter
    (fun (c, atoms) ->
      let key = monomial_key atoms in
      match Hashtbl.find_opt tbl key with
      | Some r -> r := !r + c
      | None ->
          Hashtbl.add tbl key (ref c);
          keys := key :: !keys)
    ms;
  let terms =
    List.rev !keys
    |> List.filter_map (fun key ->
           let c = !(Hashtbl.find tbl key) in
           if c = 0 then None
           else
             match (c, key) with
             | c, [] -> Some (Int c)
             | 1, [ a ] -> Some a
             | 1, atoms -> Some (Mul atoms)
             | c, atoms -> Some (Mul (Int c :: atoms)))
    |> List.sort compare_expr
    (* Constants read better at the end of a sum: [N*N - 1], not [-1 + N*N]. *)
    |> List.partition (function Int _ -> false | _ -> true)
    |> fun (non_const, const) -> non_const @ const
  in
  match terms with [] -> Int 0 | [ t ] -> t | ts -> Add ts

and simplify_sum (xs : t list) : t =
  of_monomials (List.concat_map to_monomials xs)

and simplify_product (xs : t list) : t =
  (* Distribute products over sums so that polynomials canonicalize. *)
  let mult_mono ((c1, a1) : monomial) ((c2, a2) : monomial) : monomial =
    (c1 * c2, List.sort compare_expr (a1 @ a2))
  in
  let factors = List.map to_monomials xs in
  let product =
    List.fold_left
      (fun acc f -> List.concat_map (fun m -> List.map (mult_mono m) f) acc)
      [ (1, []) ] factors
  in
  of_monomials product

and simplify_div (a : t) (b : t) : t =
  match (a, b) with
  | _, Int 1 -> a
  | Int 0, _ -> Int 0
  | Int x, Int y when y <> 0 ->
      (* floor division *)
      let q = if (x < 0) <> (y < 0) && x mod y <> 0 then (x / y) - 1 else x / y in
      Int q
  | a, b when compare_expr a b = 0 -> Int 1 (* symbols are non-negative; a/a=1 when a>0 assumed *)
  | a, Int k when k > 1 -> (
      (* Divide out a common constant factor when exact. *)
      let ms = to_monomials a in
      if ms <> [] && List.for_all (fun (c, _) -> c mod k = 0) ms then
        of_monomials (List.map (fun (c, ats) -> (c / k, ats)) ms)
      else Div (a, Int k))
  | _ -> Div (a, b)

and simplify_mod (a : t) (b : t) : t =
  match (a, b) with
  | _, Int 1 -> Int 0
  | Int 0, _ -> Int 0
  | Int x, Int y when y <> 0 ->
      let m = x mod y in
      Int (if m < 0 then m + abs y else m)
  | a, b when compare_expr a b = 0 -> Int 0
  | a, Int k when k > 1 -> (
      let ms = to_monomials a in
      if ms <> [] && List.for_all (fun (c, _) -> c mod k = 0) ms then Int 0
      else Mod (a, Int k))
  | _ -> Mod (a, b)

and simplify_min (a : t) (b : t) : t =
  match (a, b) with
  | Int x, Int y -> Int (min x y)
  | a, b when compare_expr a b = 0 -> a
  | a, b -> if compare_expr a b <= 0 then Min (a, b) else Min (b, a)

and simplify_max (a : t) (b : t) : t =
  match (a, b) with
  | Int x, Int y -> Int (max x y)
  | a, b when compare_expr a b = 0 -> a
  | a, b -> if compare_expr a b <= 0 then Max (a, b) else Max (b, a)

(* ------------------------------------------------------------------ *)
(* Smart constructors (always return simplified forms). *)

let add a b = simplify (Add [ a; b ])
let add_list xs = simplify (Add xs)
let sub a b = simplify (Add [ a; Mul [ Int (-1); b ] ])
let neg a = simplify (Mul [ Int (-1); a ])
let mul a b = simplify (Mul [ a; b ])
let mul_list xs = simplify (Mul xs)
let div a b = simplify (Div (a, b))
let modulo a b = simplify (Mod (a, b))
let min_ a b = simplify (Min (a, b))
let max_ a b = simplify (Max (a, b))

let equal (a : t) (b : t) : bool = compare_expr (simplify a) (simplify b) = 0
let compare = compare_expr

let is_constant (e : t) : int option =
  match simplify e with Int n -> Some n | _ -> None

(* ------------------------------------------------------------------ *)

let free_syms (e : t) : string list =
  let module S = Set.Make (String) in
  let rec go acc = function
    | Int _ -> acc
    | Sym s -> S.add s acc
    | Add xs | Mul xs -> List.fold_left go acc xs
    | Div (a, b) | Mod (a, b) | Min (a, b) | Max (a, b) -> go (go acc a) b
  in
  S.elements (go S.empty e)

(** [subst lookup e] replaces every symbol [s] for which [lookup s] is
    [Some e'] and re-simplifies. *)
let rec subst (lookup : string -> t option) (e : t) : t =
  let e' =
    match e with
    | Int _ -> e
    | Sym s -> ( match lookup s with Some r -> r | None -> e)
    | Add xs -> Add (List.map (subst lookup) xs)
    | Mul xs -> Mul (List.map (subst lookup) xs)
    | Div (a, b) -> Div (subst lookup a, subst lookup b)
    | Mod (a, b) -> Mod (subst lookup a, subst lookup b)
    | Min (a, b) -> Min (subst lookup a, subst lookup b)
    | Max (a, b) -> Max (subst lookup a, subst lookup b)
  in
  simplify e'

let subst_one (name : string) (value : t) (e : t) : t =
  subst (fun s -> if String.equal s name then Some value else None) e

exception Unbound_symbol of string

(** Concrete evaluation; raises {!Unbound_symbol} when a symbol has no
    binding. Division is floor division, matching {!simplify}. *)
let rec eval (env : string -> int option) (e : t) : int =
  match e with
  | Int n -> n
  | Sym s -> (
      match env s with Some v -> v | None -> raise (Unbound_symbol s))
  | Add xs -> List.fold_left (fun acc x -> acc + eval env x) 0 xs
  | Mul xs -> List.fold_left (fun acc x -> acc * eval env x) 1 xs
  | Div (a, b) ->
      (* Operand evaluation is explicitly left-to-right throughout: [env]
         may have charging side effects (scalar-container reads), and the
         compiled-closure evaluator mirrors this exact order. *)
      let x = eval env a in
      let y = eval env b in
      if y = 0 then invalid_arg "Expr.eval: division by zero"
      else if (x < 0) <> (y < 0) && x mod y <> 0 then (x / y) - 1
      else x / y
  | Mod (a, b) ->
      let x = eval env a in
      let y = eval env b in
      if y = 0 then invalid_arg "Expr.eval: modulo by zero"
      else
        let m = x mod y in
        if m < 0 then m + abs y else m
  | Min (a, b) ->
      let x = eval env a in
      let y = eval env b in
      min x y
  | Max (a, b) ->
      let x = eval env a in
      let y = eval env b in
      max x y

(* ------------------------------------------------------------------ *)
(* Printing: conventional infix syntax, parenthesized only when needed. *)

let rec pp (ppf : Format.formatter) (e : t) : unit = pp_prec 0 ppf e

and pp_prec (prec : int) (ppf : Format.formatter) (e : t) : unit =
  match e with
  | Int n -> if n < 0 && prec > 0 then Fmt.pf ppf "(%d)" n else Fmt.pf ppf "%d" n
  | Sym s -> Fmt.string ppf s
  | Add xs ->
      let body ppf () =
        List.iteri
          (fun i x ->
            match x with
            | Int n when i > 0 && n < 0 -> Fmt.pf ppf " - %d" (-n)
            | Mul (Int c :: rest) when i > 0 && c < 0 ->
                Fmt.pf ppf " - %a" (pp_prec 2)
                  (if c = -1 then
                     match rest with [ r ] -> r | rs -> Mul rs
                   else Mul (Int (-c) :: rest))
            | x ->
                if i > 0 then Fmt.pf ppf " + ";
                pp_prec 1 ppf x)
          xs
      in
      if prec > 1 then Fmt.pf ppf "(%a)" body () else body ppf ()
  | Mul xs ->
      let body ppf () =
        List.iteri
          (fun i x ->
            if i > 0 then Fmt.pf ppf "*";
            pp_prec 2 ppf x)
          xs
      in
      if prec > 2 then Fmt.pf ppf "(%a)" body () else body ppf ()
  | Div (a, b) -> Fmt.pf ppf "%a / %a" (pp_prec 2) a (pp_prec 3) b
  | Mod (a, b) -> Fmt.pf ppf "%a %% %a" (pp_prec 2) a (pp_prec 3) b
  | Min (a, b) -> Fmt.pf ppf "min(%a, %a)" pp a pp b
  | Max (a, b) -> Fmt.pf ppf "max(%a, %a)" pp a pp b

let to_string (e : t) : string = Fmt.str "%a" pp e
