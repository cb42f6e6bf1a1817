(** The maintenance context every incremental algorithm shares, and its
    single commit point:

    - the {!ctx} tracks, per predicate, the full count delta accumulated
      this batch; "old" views read the stored relations, "new" views read
      old ⊎ delta through an overlay (no copying);
    - {!neg_delta} is Definition 6.1: [Δ(¬Q)] computed from [Δ(Q)], [Q]
      and [Qν] alone — the delta literal can stay first in the join order
      without evaluating the positive subgoals of the rule;
    - {!agg_delta} caches Algorithm 6.1's [Δ(T)] per GROUPBY spec;
    - {!seeds} are the delta rules of Definition 4.1, evaluated by the
      round engine ({!Ivm_eval.Rounds});
    - {!maintain} is the one entry point every algorithm runs through:
      it installs the base deltas, lets the algorithm's producer fill in
      the derived deltas, and ends in {!commit} — the only place stored
      counts change. *)

module Value = Ivm_relation.Value
module Tuple = Ivm_relation.Tuple
module Relation = Ivm_relation.Relation
module Relation_view = Ivm_relation.Relation_view
module Program = Ivm_datalog.Program
module Database = Ivm_eval.Database
module Compile = Ivm_eval.Compile
module Rule_eval = Ivm_eval.Rule_eval
module Grouping = Ivm_eval.Grouping
module Rounds = Ivm_eval.Rounds

type version = Old | New

type ctx = {
  db : Database.t;
  base : (string * Relation.t) list;
      (** the normalized base deltas this batch was entered with *)
  full : (string, Relation.t) Hashtbl.t;
      (** per predicate: the count delta accumulated this maintenance round
          (base deltas at entry, derived deltas as they are computed) *)
  propagated : (string, Relation.t) Hashtbl.t;
      (** the delta enumerated at delta positions: equal to [full] under
          duplicate semantics; under set semantics the ±1 set transition
          (boxed statement 2 of Algorithm 4.1) *)
  neg_deltas : (string, Relation.t) Hashtbl.t;  (** Definition 6.1 cache *)
  agg_deltas : (string, Relation.t) Hashtbl.t;  (** Algorithm 6.1 cache *)
  grouped : (string, Relation.t) Hashtbl.t;  (** old/new grouped relations *)
}

let empty_rel ctx pred =
  Relation.create (Program.arity (Database.program ctx.db) pred)

let full_delta ctx pred =
  match Hashtbl.find_opt ctx.full pred with
  | Some r -> r
  | None -> empty_rel ctx pred

let propagated_delta ctx pred =
  match Hashtbl.find_opt ctx.propagated pred with
  | Some r -> r
  | None -> empty_rel ctx pred

(** [set_delta ctx pred ~full] records [pred]'s delta for this round and
    derives the propagated version per the database's semantics. *)
let set_delta ctx pred ~full =
  Hashtbl.replace ctx.full pred full;
  let stored = Database.relation ctx.db pred in
  let set_propagation =
    Database.semantics ctx.db = Database.Set_semantics
    || Database.is_distinct ctx.db pred
  in
  let prop =
    if not set_propagation then full
    else
      (* set(Pν) − set(P): only sign transitions propagate. *)
      let out = Relation.create (Relation.arity full) in
      Relation.iter
        (fun tup c ->
          let before = Relation.count stored tup in
          let after = before + c in
          if before <= 0 && after > 0 then Relation.add out tup 1
          else if before > 0 && after <= 0 then Relation.add out tup (-1))
        full;
      out
  in
  Hashtbl.replace ctx.propagated pred prop

(** Install an empty full delta for [pred] and return it: new views of
    [pred] read it as it grows (a recursive unit's accumulator) until
    {!set_delta} fixes it. *)
let start_delta ctx pred =
  let r = empty_rel ctx pred in
  Hashtbl.replace ctx.full pred r;
  r

let old_view ctx pred = Database.view ctx.db pred

let new_view ctx pred =
  match Hashtbl.find_opt ctx.full pred with
  | Some delta -> Relation_view.overlay (Database.relation ctx.db pred) delta
  | None -> Database.view ctx.db pred

let view ctx version pred =
  match version with Old -> old_view ctx pred | New -> new_view ctx pred

(** Definition 6.1.  [Δ(¬Q)] holds [t] with count +1 when [t] was deleted
    outright from [Q] (so [¬q(t)] became true) and with −1 when [t] was
    inserted into a previously-empty [Q] slot.  Only tuples of [Δ(Q)] can
    appear. *)
let neg_delta ctx pred =
  match Hashtbl.find_opt ctx.neg_deltas pred with
  | Some r -> r
  | None ->
    let out = empty_rel ctx pred in
    let stored = Database.relation ctx.db pred in
    let delta = full_delta ctx pred in
    Relation.iter
      (fun tup c ->
        let before = Relation.count stored tup in
        let after = before + c in
        if before > 0 && after <= 0 then Relation.add out tup 1
        else if before <= 0 && after > 0 then Relation.add out tup (-1))
      delta;
    Hashtbl.replace ctx.neg_deltas pred out;
    out

(** The grouped relation [T] of [spec] over the old or new version of its
    source, cached per spec signature. *)
let grouped ctx version (spec : Compile.agg_spec) =
  let tag = (match version with Old -> "old|" | New -> "new|") ^ spec.gsignature in
  match Hashtbl.find_opt ctx.grouped tag with
  | Some r -> r
  | None ->
    let mult = Database.mult_for ctx.db spec.gsource.cpred in
    let r = Grouping.compute ~mult (view ctx version spec.gsource.cpred) spec in
    Hashtbl.replace ctx.grouped tag r;
    r

(** Algorithm 6.1: [Δ(T)] for one GROUPBY spec, cached.  Only the groups
    occurring in the source delta are touched, each through the spec's
    persistent accumulator index ({!Database.agg_index}, [DAJ91]) in
    [O(|Δ| log)]; the index consumes the propagated regime — count deltas
    under duplicates, ±1 set transitions under set semantics — and
    {!commit} folds the batch into it. *)
let agg_delta ctx (spec : Compile.agg_spec) =
  match Hashtbl.find_opt ctx.agg_deltas spec.gsignature with
  | Some r -> r
  | None ->
    let delta_u = propagated_delta ctx spec.gsource.cpred in
    (* an unchanged source moves no group: leave its index unbuilt *)
    let r =
      if Relation.is_empty delta_u then Relation.create (Compile.spec_arity spec)
      else Ivm_eval.Agg_index.delta_preview (Database.agg_index ctx.db spec) delta_u
    in
    Hashtbl.replace ctx.agg_deltas spec.gsignature r;
    r

(** What body position [j] of [cr] reads when it reads [version] of its
    relation: positive atoms enumerate the view, negated atoms filter
    against it, GROUPBY subgoals enumerate the grouped relation. *)
let input ctx version (cr : Compile.t) j =
  match cr.clits.(j) with
  | Compile.Catom a ->
    Rule_eval.Enumerate (view ctx version a.cpred, Database.mult_for ctx.db a.cpred)
  | Compile.Cneg a -> Rule_eval.Filter_absent (view ctx version a.cpred)
  | Compile.Cagg (spec, _) ->
    Rule_eval.Enumerate
      (Relation_view.concrete (grouped ctx version spec), Rule_eval.identity_count)
  | Compile.Ccmp _ -> assert false

(** The delta rules of Definition 4.1 for [cr] (extended to negation per
    Section 6.1 cases 1–3 and to aggregation per Section 6.2): one seed
    per body literal with a non-empty delta, positions before it reading
    new views and positions after it old views. *)
let seeds ctx (cr : Compile.t) =
  Rounds.seeds cr
    ~delta:(function
      | Compile.Catom a -> Some (propagated_delta ctx a.cpred)
      | Compile.Cneg a -> Some (neg_delta ctx a.cpred)
      | Compile.Cagg (spec, _) -> Some (agg_delta ctx spec)
      | Compile.Ccmp _ -> None)
    ~inputs:(fun pos j -> input ctx (if j < pos then New else Old) cr j)

(** One Definition 4.1 round for the nonrecursive predicate [p]: every
    delta rule of [p]'s rules, ⊎-combined and recorded as [p]'s delta.
    The round runs in [p]'s stratum under phase ["delta"]; its emissions
    enumerate each gained (+) / lost (−) derivation exactly once
    (Definition 4.1's partition), so sign-driven support capture stays
    exact. *)
let derive ctx p =
  let program = Database.program ctx.db in
  (* the first task buffer becomes the delta; later ones ⊎ into it *)
  let out = ref None in
  Rounds.run
    ~context:{ Rule_eval.stratum = Program.stratum program p; phase = "delta"; lost = false }
    (List.concat_map
       (fun rule -> seeds ctx (Database.compile ctx.db rule))
       (Program.rules_for program p))
    ~absorb:(fun _ buf ->
      match !out with
      | None -> out := Some buf
      | Some into -> Relation.union_into ~into buf);
  let out = match !out with Some r -> r | None -> empty_rel ctx p in
  set_delta ctx p ~full:out;
  out

(** Commit all accumulated full deltas into the stored relations.
    @raise Invalid_argument if a committed count would go negative — the
    producer violated Lemma 4.1's precondition. *)
let commit ctx =
  let cap = Ivm_prov.Prov.capturing () in
  Hashtbl.iter
    (fun pred delta ->
      let stored = Database.relation ctx.db pred in
      Relation.iter
        (fun tup c ->
          let before = Relation.count stored tup in
          let c' = before + c in
          if c' < 0 then
            invalid_arg
              (Printf.sprintf
                 "maintenance drove count of %s%s negative (%d); deletions \
                  must be a subset of the database"
                 pred (Tuple.to_string tup) c');
          if cap then
            if before <= 0 && c' > 0 then
              Ivm_prov.Prov.on_transition ~pred tup `Derived
            else if before > 0 && c' <= 0 then
              Ivm_prov.Prov.on_transition ~pred tup `Deleted;
          Relation.set_count stored tup c')
        delta)
    ctx.full;
  (* Aggregate indexes consume the propagated regime. *)
  let transitions =
    Hashtbl.fold (fun pred delta acc -> (pred, delta) :: acc) ctx.propagated []
  in
  Database.refresh_agg_indexes ctx.db transitions

(** The one maintenance entry point: a fresh context over [db], the
    normalized [base] deltas installed, [produce] run to record every
    derived predicate's delta, then {!commit}.  An exception raised by
    [produce] leaves the database untouched. *)
let maintain db base produce =
  let ctx =
    {
      db;
      base;
      full = Hashtbl.create 16;
      propagated = Hashtbl.create 16;
      neg_deltas = Hashtbl.create 8;
      agg_deltas = Hashtbl.create 8;
      grouped = Hashtbl.create 8;
    }
  in
  List.iter (fun (pred, full) -> set_delta ctx pred ~full) base;
  produce ctx;
  commit ctx;
  ctx

(** The non-empty deltas [table] holds for derived predicates, sorted. *)
let derived_deltas ctx table =
  List.filter_map
    (fun p ->
      match Hashtbl.find_opt table p with
      | Some r when not (Relation.is_empty r) -> Some (p, r)
      | _ -> None)
    (Program.derived_preds (Database.program ctx.db))

let view_deltas ctx =
  derived_deltas ctx
    (match Database.semantics ctx.db with
    | Database.Set_semantics -> ctx.propagated
    | Database.Duplicate_semantics -> ctx.full)
