(** The semi-naive round engine: one frozen round of rule applications
    fanned out over the domain pool ({!run}), and the semi-naive fixpoint
    of a recursive unit built from such rounds ({!fixpoint}). *)

module Relation = Ivm_relation.Relation
module Relation_view = Ivm_relation.Relation_view
module Tuple = Ivm_relation.Tuple
module Program = Ivm_datalog.Program
module Metrics = Ivm_obs.Metrics

type seed = {
  rule : Compile.t;
  at : (int * Relation.t) option;
  inputs : int -> Rule_eval.subgoal_input;
}

(* One task per chunk of the seed delta (one task for a full evaluation).
   The seed position enumerates the task's chunk; every other position
   reads the seed's inputs, forced here first. *)
let tasks ~chunks { rule; at; inputs } =
  let force () =
    Array.iteri
      (fun j lit ->
        match (lit, at) with
        | Compile.Ccmp _, _ -> ()
        | _, Some (pos, _) when j = pos -> ()
        | _ -> ignore (inputs j))
      rule.Compile.clits
  in
  let task at () =
    let buf = Relation.create (Array.length rule.chead) in
    let inputs j =
      match at with
      | Some (pos, part) when j = pos ->
        Rule_eval.Enumerate (Relation_view.concrete part, Rule_eval.identity_count)
      | _ -> inputs j
    in
    Rule_eval.eval ?seed:(Option.map fst at) ~inputs
      ~emit:(fun tup c -> Relation.add buf tup c)
      rule;
    (rule.head_pred, buf)
  in
  match at with
  | Some (_, delta) when Relation.is_empty delta -> []
  | None ->
    force ();
    [ task None ]
  | Some (pos, delta) ->
    force ();
    Array.to_list
      (Array.map (fun part -> task (Some (pos, part))) (Par_eval.split delta ~chunks))

let seeds rule ~delta ~inputs =
  List.concat
    (List.mapi
       (fun pos lit ->
         match delta lit with
         | Some d -> [ { rule; at = Some (pos, d); inputs = inputs pos } ]
         | None -> [])
       (Array.to_list rule.Compile.clits))

let run seeds ~absorb =
  let chunks = Par_eval.chunks_hint () in
  let tasks = Array.of_list (List.concat_map (tasks ~chunks) seeds) in
  Array.iter (fun (p, buf) -> absorb p buf) (Ivm_par.parallel_map tasks)

type engine = {
  instant : string;  (** the [<engine>.round] trace instant's name *)
  rounds_c : Metrics.counter;
  delta_h : Metrics.histogram;
}

let engine name =
  let labels = [ ("engine", name) ] in
  {
    instant = name ^ ".round";
    rounds_c = Metrics.counter ~labels "ivm_fixpoint_rounds_total";
    delta_h = Metrics.histogram ~labels "ivm_fixpoint_delta_size";
  }

let fixpoint ?(on_round = fun _ _ -> ()) ~engine db preds ~rules ~round0 ~inputs ~absorb =
  let program = Database.program db in
  let rec go n round =
    let next = List.map (fun p -> (p, Relation.create (Program.arity program p))) preds in
    run round ~absorb:(fun p buf ->
        let into = List.assoc p next in
        Relation.iter (fun tup c -> Relation.add into tup (absorb p tup c)) buf);
    if List.exists (fun (_, r) -> not (Relation.is_empty r)) next then begin
      let pending p = List.assoc p next in
      Metrics.inc engine.rounds_c;
      List.iter (fun (_, r) -> Metrics.observe engine.delta_h (Relation.cardinal r)) next;
      Ivm_obs.Trace.instant engine.instant ~args:(fun () ->
          ("round", string_of_int (n + 1))
          :: List.map (fun (p, r) -> (p, string_of_int (Relation.cardinal r))) next);
      on_round (n + 1) pending;
      let delta = function
        | Compile.Catom a when List.mem_assoc a.cpred next -> Some (pending a.cpred)
        | _ -> None
      in
      let seeded rule = seeds rule ~delta ~inputs:(inputs rule) in
      go (n + 1) (List.concat_map (fun p -> List.concat_map seeded (rules p)) preds)
    end
  in
  go 0 round0
