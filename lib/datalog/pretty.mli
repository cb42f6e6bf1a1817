(** Printing of programs in the concrete syntax accepted by {!Parser}:
    printing then re-parsing is the identity (covered by the round-trip
    property suite). *)

open Ast

val pp_term : Format.formatter -> term -> unit
val pp_expr : Format.formatter -> expr -> unit
val pp_atom : Format.formatter -> atom -> unit
val pp_aggregate : Format.formatter -> aggregate -> unit
val pp_literal : Format.formatter -> literal -> unit
val pp_rule : Format.formatter -> rule -> unit
val pp_statement : Format.formatter -> statement -> unit
val pp_program : Format.formatter -> rule list -> unit

(** The rule on one line, whatever its length. *)
val rule_to_string : rule -> string

val literal_to_string : literal -> string
val atom_to_string : atom -> string
