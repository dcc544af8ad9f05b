(* The round-robin scan [Engine.Stratify.live_rules] replaced, kept as
   its oracle: each round walks the rules not yet taken, in program
   order, and takes every one that defines a relevant relation; a taken
   rule's reads are relevant at once for the rules after it. Quadratic
   in the rules, so a program with thousands of rules pays for it on
   every call. *)

module Ir = Pathlog.Ir
module Rule = Engine.Rule

let live_rules (rules : Rule.t list) ~goals =
  let norm = Ir.norm_rel in
  let seeds = List.sort_uniq Ir.compare_rel (List.map norm goals) in
  if List.mem Ir.R_any seeds then rules
  else begin
    let relevant = ref seeds in
    let selected = ref [] in
    let remaining = ref rules in
    let changed = ref true in
    while !changed do
      changed := false;
      let still_out = ref [] in
      List.iter
        (fun (rule : Rule.t) ->
          let defines = List.map norm rule.defines in
          let touches =
            List.mem Ir.R_any defines
            || List.exists (fun d -> List.mem d !relevant) defines
          in
          if touches then begin
            selected := rule :: !selected;
            changed := true;
            List.iter
              (fun r ->
                let r = norm r in
                if not (List.mem r !relevant) then relevant := r :: !relevant)
              (rule.reads @ rule.completion_reads)
          end
          else still_out := rule :: !still_out)
        !remaining;
      remaining := List.rev !still_out
    done;
    List.rev !selected
  end
