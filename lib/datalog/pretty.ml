(** Printing of programs in the concrete syntax accepted by {!Parser} —
    printing then re-parsing is the identity (tested by the round-trip
    property suite). *)

open Ast
module Value = Ivm_relation.Value

let pp_term ppf = function
  | Var v -> Format.pp_print_string ppf v
  | Const c -> Value.pp ppf c

(* Precedence levels: 0 = additive, 1 = multiplicative, 2 = atomic. *)
let rec pp_expr_prec prec ppf e =
  let paren p body =
    if prec > p then Format.fprintf ppf "(%t)" body else body ppf
  in
  match e with
  | Eterm t -> pp_term ppf t
  | Eadd (a, b) ->
    paren 0 (fun ppf ->
        Format.fprintf ppf "%a + %a" (pp_expr_prec 0) a (pp_expr_prec 1) b)
  | Esub (a, b) ->
    paren 0 (fun ppf ->
        Format.fprintf ppf "%a - %a" (pp_expr_prec 0) a (pp_expr_prec 1) b)
  | Emul (a, b) ->
    paren 1 (fun ppf ->
        Format.fprintf ppf "%a * %a" (pp_expr_prec 1) a (pp_expr_prec 2) b)
  | Ediv (a, b) ->
    paren 1 (fun ppf ->
        Format.fprintf ppf "%a / %a" (pp_expr_prec 1) a (pp_expr_prec 2) b)
  | Eneg a -> paren 1 (fun ppf -> Format.fprintf ppf "-%a" (pp_expr_prec 2) a)

let pp_expr = pp_expr_prec 0

let pp_args ppf args =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
    pp_expr ppf args

let pp_atom ppf (a : atom) =
  if a.args = [] then Format.pp_print_string ppf a.pred
  else Format.fprintf ppf "%s(%a)" a.pred pp_args a.args

let pp_aggregate ppf agg =
  let pp_by ppf by =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
      Format.pp_print_string ppf by
  in
  let pp_call ppf () =
    match agg.agg_fn with
    | Count -> Format.fprintf ppf "count()"
    | fn -> Format.fprintf ppf "%s(%a)" (agg_fn_name fn) pp_expr agg.agg_arg
  in
  Format.fprintf ppf "groupby(%a, [%a], %s = %a)" pp_atom agg.agg_source pp_by
    agg.agg_group_by agg.agg_result pp_call ()

let pp_literal ppf = function
  | Lpos a -> pp_atom ppf a
  | Lneg a -> Format.fprintf ppf "not %a" pp_atom a
  | Lagg agg -> pp_aggregate ppf agg
  | Lcmp (a, op, b) ->
    Format.fprintf ppf "%a %s %a" pp_expr a (cmp_op_name op) pp_expr b

let pp_rule ppf (r : rule) =
  if r.body = [] then Format.fprintf ppf "%a." pp_atom r.head
  else
    Format.fprintf ppf "@[<hov 2>%a :-@ %a.@]" pp_atom r.head
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
         pp_literal)
      r.body

let pp_statement ppf = function
  | Srule r -> pp_rule ppf r
  | Sfact (pred, vals) ->
    Format.fprintf ppf "%s(%a)." pred
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         Value.pp)
      vals

let pp_program ppf rules =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf "@.")
    pp_rule ppf rules

(* One line at any length: the text names its rule in attribution rows,
   [ivm_rule_*] metric labels, provenance supports and trace commands. *)
let rule_to_string r =
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  Format.pp_set_margin ppf max_int;
  Format.fprintf ppf "%a%!" pp_rule r;
  Buffer.contents buf

let literal_to_string l = Format.asprintf "%a" pp_literal l
let atom_to_string a = Format.asprintf "%a" pp_atom a
