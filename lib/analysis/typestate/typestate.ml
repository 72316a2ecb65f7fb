(* Path-sensitive typestate analysis: per-function CFGs preserving
   branch/loop/exception structure, a small forward abstract-
   interpretation engine, and three rules on top of it — guard balance
   (rule 11), loop progress (rule 12) and protocol automata (rule 13).
   See typestate.mli and docs/ANALYSIS.md, "Typestate prong".

   The walk is syntactic over the same parsetree the lint reads,
   sharing its idiom recognisers (module L); interprocedural knowledge
   (call resolution, callee atomic effects) comes from the summary
   environment built over the same corpus. Everything here is total:
   an expression shape the builder does not model falls back to a
   sequential walk of its children, so an unmodelled construct can
   cost precision, never a crash or a missed edge out of a node. *)

module L = Sec_lint_rules.Lint_rules
module Summary = Sec_summary.Summary
open Parsetree

type pos = int * int

let line_span (loc : Location.t) =
  (loc.Location.loc_start.Lexing.pos_lnum, loc.Location.loc_end.Lexing.pos_lnum)

(* ------------------------------------------------------------------ *)
(* Protocol DSL                                                        *)
(* ------------------------------------------------------------------ *)

type akind = Kread | Kwrite | Krmw

let kind_to_string = function
  | Kread -> "read"
  | Kwrite -> "write"
  | Krmw -> "rmw"

type automaton = {
  a_name : string;
  a_states : string array; (* index 0 = start state *)
  a_trans : (int * akind * string, int list) Hashtbl.t;
  a_declared : (akind * string, unit) Hashtbl.t;
}

let split_once s sep =
  let ls = String.length s and lb = String.length sep in
  let rec scan i =
    if i + lb > ls then None
    else if String.sub s i lb = sep then
      Some (String.sub s 0 i, String.sub s (i + lb) (ls - i - lb))
    else scan (i + 1)
  in
  scan 0

(* "name: s1 -kind:field-> s2; s2 -kind:field-> s3; ...". The first
   transition's source is the start state. *)
let parse_automaton payload =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let* name, rest =
    match split_once payload ":" with
    | Some (n, rest) when String.trim n <> "" -> Ok (String.trim n, rest)
    | _ -> Error "missing \"name:\" prefix"
  in
  let states = ref [] (* (name, index) *) in
  let nstates = ref 0 in
  let intern s =
    match List.assoc_opt s !states with
    | Some i -> i
    | None ->
        let i = !nstates in
        incr nstates;
        states := (s, i) :: !states;
        i
  in
  let trans = Hashtbl.create 16 in
  let declared = Hashtbl.create 16 in
  let parse_transition s =
    let* lhs, dst =
      match split_once s "->" with
      | Some (l, d) when String.trim d <> "" -> Ok (l, String.trim d)
      | _ -> Error (Printf.sprintf "transition %S: missing \"-> state\"" s)
    in
    let* src, label =
      match String.index_opt lhs '-' with
      | Some i ->
          let src = String.trim (String.sub lhs 0 i) in
          let label =
            String.trim (String.sub lhs (i + 1) (String.length lhs - i - 1))
          in
          if src = "" then
            Error (Printf.sprintf "transition %S: empty source state" s)
          else Ok (src, label)
      | None ->
          Error (Printf.sprintf "transition %S: missing \"-kind:field->\"" s)
    in
    let* kind, field =
      match split_once label ":" with
      | Some (k, f) when String.trim f <> "" ->
          Ok (String.trim k, String.trim f)
      | _ -> Error (Printf.sprintf "transition %S: label must be kind:field" s)
    in
    let* kind =
      match kind with
      | "read" -> Ok Kread
      | "write" -> Ok Kwrite
      | "rmw" -> Ok Krmw
      | k ->
          Error
            (Printf.sprintf "transition %S: kind %S is not read/write/rmw" s k)
    in
    let si = intern src in
    let di = intern dst in
    Hashtbl.replace declared (kind, field) ();
    let prev =
      Option.value (Hashtbl.find_opt trans (si, kind, field)) ~default:[]
    in
    Hashtbl.replace trans (si, kind, field) (di :: prev);
    Ok ()
  in
  let parts =
    String.split_on_char ';' rest
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let* () = if parts = [] then Error "no transitions" else Ok () in
  let* () =
    List.fold_left
      (fun acc p ->
        let* () = acc in
        parse_transition p)
      (Ok ()) parts
  in
  let* () = if !nstates > 62 then Error "too many states (max 62)" else Ok () in
  let arr = Array.make !nstates "" in
  List.iter (fun (s, i) -> arr.(i) <- s) !states;
  Ok { a_name = name; a_states = arr; a_trans = trans; a_declared = declared }

(* ------------------------------------------------------------------ *)
(* CFG                                                                 *)
(* ------------------------------------------------------------------ *)

type op =
  | Atomic of akind * string * pos (* kind, field (last component), pos *)
  | Enter of pos (* direct EBR enter / guard-wrapper entry *)
  | Exit of pos
  | Callsite of pos (* application, resolvable through the summary *)
  | Mark of pos (* record-field access: a guard-depth probe (rule 4) *)

type node = { id : int; mutable op : op option; mutable succs : int list }

type cfg = {
  nodes : node array;
  entry : int;
  normal_exit : int;
  exn_exit : int;
  n_loop_heads : int;
}

type builder = {
  mutable bnodes : node list;
  mutable nid : int;
  mutable heads : int;
}

let new_node b =
  let n = { id = b.nid; op = None; succs = [] } in
  b.nid <- b.nid + 1;
  b.bnodes <- n :: b.bnodes;
  n

let link a c = if not (List.mem c.id a.succs) then a.succs <- c.id :: a.succs

let op_node b cur o =
  let n = new_node b in
  n.op <- Some o;
  link cur n;
  n

(* ------------------------------------------------------------------ *)
(* Idiom recognition shared by the builder and the loop classifier     *)
(* ------------------------------------------------------------------ *)

let attr_reason name attrs =
  match L.find_attr name attrs with
  | Some attr -> (
      match L.string_payload attr with
      | Some s when String.trim s <> "" ->
          Some (L.pos_of attr.attr_name.Location.loc)
      | _ -> None)
  | None -> None

let is_lambda e =
  match e.pexp_desc with Pexp_fun _ | Pexp_function _ -> true | _ -> false

let rec peel_fun e =
  match e.pexp_desc with Pexp_fun (_, _, _, b) -> peel_fun b | _ -> e

(* The cell a substrate atomic access touches, keyed by the last path
   component of the field (or the variable name for a bare ident):
   [A.get batch.elimination.(seq)] -> "elimination". *)
let rec cell_field (e : expression) =
  match e.pexp_desc with
  | Pexp_field (_, { txt; _ }) -> L.last_component txt
  | Pexp_apply
      ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (Asttypes.Nolabel, a) :: _)
    when L.is_array_get txt ->
      cell_field a
  | Pexp_ident { txt; _ } -> L.last_component txt
  | Pexp_constraint (inner, _) -> cell_field inner
  | _ -> "?"

(* The base variable a cell expression dereferences from:
   [t.slots.(tid).announce] -> "t". *)
let rec cell_root (e : expression) =
  match e.pexp_desc with
  | Pexp_field (inner, _) -> cell_root inner
  | Pexp_apply
      ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (Asttypes.Nolabel, a) :: _)
    when L.is_array_get txt ->
      cell_root a
  | Pexp_ident { txt; _ } -> Some (L.last_component txt)
  | Pexp_constraint (inner, _) -> cell_root inner
  | _ -> None

let atomic_kind lid =
  if L.is_atomic_get lid then Some Kread
  else if L.is_atomic_set lid then Some Kwrite
  else if L.is_rmw_ident lid then Some Krmw
  else None

let has_tid_label args =
  List.exists
    (fun (lbl, _) ->
      match lbl with Asttypes.Labelled "tid" -> true | _ -> false)
    args

(* Direct EBR enter/exit: the repo idiom is [enter t ~tid] /
   [exit t ~tid] (ebr.ml and its callers); requiring the [~tid] label
   keeps [Stdlib.exit] and unrelated enters out. *)
let enter_exit_kind lid args =
  match L.last_component lid with
  | "enter" when has_tid_label args -> Some `Enter
  | "exit" when has_tid_label args -> Some `Exit
  | _ -> None

let is_raise_ident lid =
  match L.flatten_longident lid with
  | [ ("raise" | "raise_notrace" | "failwith" | "invalid_arg") ] -> true
  | _ -> false

(* Direct sub-expressions of [e], in syntactic order — the generic
   fallback of the builder and the scanners. *)
let children e =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr = (fun _ c -> acc := c :: !acc);
    }
  in
  Ast_iterator.default_iterator.expr it e;
  List.rev !acc

let expr_mentions name e =
  L.expr_contains_ident
    (fun lid ->
      match L.flatten_longident lid with [ n ] -> n = name | _ -> false)
    e

(* ------------------------------------------------------------------ *)
(* CFG construction                                                    *)
(* ------------------------------------------------------------------ *)

type local_fn = {
  lf_body : expression; (* peeled past the fun parameters *)
  lf_locals : (string * local_fn) list; (* scope at the definition *)
  lf_recs : (string * (node * node)) list;
}

type wenv = {
  exn : node; (* where raises on the current path land *)
  locals : (string * local_fn) list; (* non-recursive local functions *)
  recs : (string * (node * node)) list; (* rec fn -> (entry, exit) *)
  depth : int; (* inlining depth guard *)
}

let rec walk env b cur (e : expression) =
  match e.pexp_desc with
  | Pexp_ident _ | Pexp_constant _ | Pexp_unreachable -> cur
  | Pexp_fun _ | Pexp_function _ ->
      (* a lambda value that is not the argument of a recognised call is
         not executed here; its body is analysed when a call site
         inlines it *)
      cur
  | Pexp_field (inner, { loc; _ }) ->
      let cur = walk env b cur inner in
      op_node b cur (Mark (L.pos_of loc))
  | Pexp_setfield (lhs, _, rhs) ->
      let cur = walk env b cur lhs in
      walk env b cur rhs
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
      walk_apply env b cur e txt args
  | Pexp_apply (f, args) ->
      let cur = walk env b cur f in
      let cur = List.fold_left (fun cur (_, a) -> walk env b cur a) cur args in
      let call = op_node b cur (Callsite (L.pos_of e.pexp_loc)) in
      link call env.exn;
      call
  | Pexp_ifthenelse (c, t, eo) ->
      let c_end = walk env b cur c in
      let t_end = walk env b c_end t in
      let e_end =
        match eo with Some el -> walk env b c_end el | None -> c_end
      in
      let join = new_node b in
      link t_end join;
      link e_end join;
      join
  | Pexp_match (scr, cases) -> (
      let exn_cases, val_cases =
        List.partition
          (fun c ->
            match c.pc_lhs.ppat_desc with
            | Ppat_exception _ -> true
            | _ -> false)
          cases
      in
      match exn_cases with
      | [] ->
          let s_end = walk env b cur scr in
          join_cases env b s_end val_cases
      | _ ->
          (* [match e with ... | exception p -> ...]: the handler
             catches raises from the scrutinee only *)
          let handler = new_node b in
          let s_end = walk { env with exn = handler } b cur scr in
          let v_join = join_cases env b s_end val_cases in
          let h_join = join_cases env b handler exn_cases in
          let join = new_node b in
          link v_join join;
          link h_join join;
          join)
  | Pexp_try (body, cases) ->
      let handler = new_node b in
      let b_end = walk { env with exn = handler } b cur body in
      let h_join = join_cases env b handler cases in
      let join = new_node b in
      link b_end join;
      link h_join join;
      join
  | Pexp_sequence (a, rest) ->
      let cur = walk env b cur a in
      walk env b cur rest
  | Pexp_let (Asttypes.Nonrecursive, vbs, cont) ->
      let env' =
        List.fold_left
          (fun env' vb ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt = name; _ } when is_lambda vb.pvb_expr ->
                {
                  env' with
                  locals =
                    ( name,
                      {
                        lf_body = peel_fun vb.pvb_expr;
                        lf_locals = env'.locals;
                        lf_recs = env'.recs;
                      } )
                    :: env'.locals;
                }
            | _ -> env')
          env vbs
      in
      let cur =
        List.fold_left
          (fun cur vb ->
            if is_lambda vb.pvb_expr then cur else walk env b cur vb.pvb_expr)
          cur vbs
      in
      walk env' b cur cont
  | Pexp_let (Asttypes.Recursive, vbs, cont) ->
      let env' = bind_rec_group env b vbs in
      walk env' b cur cont
  | Pexp_while (c, body) ->
      let head = new_node b in
      b.heads <- b.heads + 1;
      link cur head;
      let c_end = walk env b head c in
      let exit_n = new_node b in
      link c_end exit_n;
      let b_end = walk env b c_end body in
      link b_end head;
      exit_n
  | Pexp_for (_, lo, hi, _, body) ->
      let cur = walk env b cur lo in
      let cur = walk env b cur hi in
      let head = new_node b in
      b.heads <- b.heads + 1;
      link cur head;
      let b_end = walk env b head body in
      link b_end head;
      let exit_n = new_node b in
      link head exit_n;
      exit_n
  | Pexp_assert
      {
        pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None);
        _;
      } ->
      link cur env.exn;
      new_node b (* dead *)
  | Pexp_assert cond ->
      let cur = walk env b cur cond in
      link cur env.exn;
      cur
  | Pexp_constraint (inner, _)
  | Pexp_coerce (inner, _, _)
  | Pexp_open (_, inner)
  | Pexp_letmodule (_, _, inner)
  | Pexp_letexception (_, inner)
  | Pexp_newtype (_, inner) ->
      walk env b cur inner
  | Pexp_lazy _ -> cur (* deferred; not executed here *)
  | _ ->
      (* tuples, records, arrays, constructors, variants, ...: walk the
         direct children in order *)
      List.fold_left (fun cur c -> walk env b cur c) cur (children e)

and join_cases env b from cases =
  let ends =
    List.map
      (fun c ->
        let g_end =
          match c.pc_guard with Some g -> walk env b from g | None -> from
        in
        walk env b g_end c.pc_rhs)
      cases
  in
  let join = new_node b in
  (match ends with
  | [] -> link from join
  | _ -> List.iter (fun e -> link e join) ends);
  join

(* A [let rec] group: each binding's body is built once between a
   dedicated entry and exit node; call sites link to the entry and
   resume from the exit. Recursion becomes a back edge; the shared
   return node merges contexts from all call sites (standard
   context-insensitive collapse — join-over-paths stays a superset). *)
and bind_rec_group env b vbs =
  let fns =
    List.filter_map
      (fun vb ->
        match vb.pvb_pat.ppat_desc with
        | Ppat_var { txt = name; _ } when is_lambda vb.pvb_expr ->
            let entry = new_node b in
            b.heads <- b.heads + 1;
            let exit_n = new_node b in
            Some (name, vb, entry, exit_n)
        | _ -> None)
      vbs
  in
  let env' =
    {
      env with
      recs = List.map (fun (n, _, en, ex) -> (n, (en, ex))) fns @ env.recs;
    }
  in
  List.iter
    (fun (_, vb, entry, exit_n) ->
      let b_end = walk_lambda_body env' b entry (peel_fun vb.pvb_expr) in
      link b_end exit_n)
    fns;
  env'

(* The body of an inlined lambda: a peeled [function] is a one-argument
   match whose scrutinee (the argument) was already walked. *)
and walk_lambda_body env b cur body =
  match body.pexp_desc with
  | Pexp_function cases -> join_cases env b cur cases
  | _ -> walk env b cur body

and walk_apply env b cur e lid args =
  let apos = L.pos_of e.pexp_loc in
  let walk_args cur =
    List.fold_left (fun cur (_, a) -> walk env b cur a) cur args
  in
  match atomic_kind lid with
  | Some kind ->
      let field =
        match List.find_opt (fun (lbl, _) -> lbl = Asttypes.Nolabel) args with
        | Some (_, cell) -> cell_field cell
        | None -> "?"
      in
      let cur = walk_args cur in
      op_node b cur (Atomic (kind, field, apos))
  | None -> (
      if L.is_guard_call lid then begin
        (* [guard t ~tid (fun () -> body)]: Enter, body, Exit — with
           raises inside the body routed through an Exit first, because
           the wrapper is exception-safe (ebr.mli) *)
        let lambdas, rest = List.partition (fun (_, a) -> is_lambda a) args in
        let cur =
          List.fold_left (fun cur (_, a) -> walk env b cur a) cur rest
        in
        let cur = op_node b cur (Enter apos) in
        let exn_relay = new_node b in
        exn_relay.op <- Some (Exit apos);
        link exn_relay env.exn;
        let benv = { env with exn = exn_relay } in
        let cur =
          match lambdas with
          | [] ->
              (* wrapper-of-a-wrapper: the guarded callable is opaque *)
              let n = new_node b in
              link cur n;
              link n exn_relay;
              n
          | _ ->
              List.fold_left
                (fun cur (_, l) -> walk_lambda_body benv b cur (peel_fun l))
                cur lambdas
        in
        op_node b cur (Exit apos)
      end
      else
        match enter_exit_kind lid args with
        | Some `Enter ->
            let cur = walk_args cur in
            op_node b cur (Enter apos)
        | Some `Exit ->
            let cur = walk_args cur in
            op_node b cur (Exit apos)
        | None ->
            if is_raise_ident lid then begin
              let cur = walk_args cur in
              link cur env.exn;
              new_node b (* dead *)
            end
            else if L.is_spin_wait_ident lid then
              (* the predicate runs at least once; its reads matter for
                 the guard-depth probes — the wait itself is rule 12's
                 business (the loop classifier, not the CFG) *)
              List.fold_left
                (fun cur (_, a) ->
                  if is_lambda a then walk_lambda_body env b cur (peel_fun a)
                  else walk env b cur a)
                cur args
            else if L.is_pacing_ident lid then walk_args cur
            else if
              L.is_atomic_make lid || L.is_array_get lid
              || L.flatten_longident lid = [ "Array"; "make" ]
              || L.flatten_longident lid = [ "Array"; "init" ]
            then walk_args cur
            else
              match lid with
              | Longident.Lident n when List.mem_assoc n env.recs ->
                  let entry, exit_n = List.assoc n env.recs in
                  let cur = walk_args cur in
                  link cur entry;
                  let ret = new_node b in
                  link exit_n ret;
                  ret
              | Longident.Lident n
                when List.mem_assoc n env.locals && env.depth < 20 ->
                  (* local non-recursive helper: inline its body at the
                     call site (scoped to its definition) *)
                  let lf = List.assoc n env.locals in
                  let cur = walk_args cur in
                  walk_lambda_body
                    {
                      env with
                      locals = lf.lf_locals;
                      recs = lf.lf_recs;
                      depth = env.depth + 1;
                    }
                    b cur lf.lf_body
              | _ ->
                  (* generic call: immediate-lambda arguments run as
                     one-or-more-iteration loops (Array.iter & co); the
                     callee itself may raise *)
                  let cur =
                    List.fold_left
                      (fun cur (_, a) ->
                        if is_lambda a then begin
                          let head = new_node b in
                          b.heads <- b.heads + 1;
                          link cur head;
                          let b_end =
                            walk_lambda_body env b head (peel_fun a)
                          in
                          link b_end head;
                          let after = new_node b in
                          link b_end after;
                          after
                        end
                        else walk env b cur a)
                      cur args
                  in
                  let call = op_node b cur (Callsite apos) in
                  link call env.exn;
                  call)

(* Build the CFG of one unit body (already peeled past its formal
   parameters). *)
let build_cfg body =
  let b = { bnodes = []; nid = 0; heads = 0 } in
  let entry = new_node b in
  let exn_exit = new_node b in
  let env = { exn = exn_exit; locals = []; recs = []; depth = 0 } in
  let last = walk_lambda_body env b entry body in
  let normal_exit = new_node b in
  link last normal_exit;
  let nodes = Array.make b.nid entry in
  List.iter (fun n -> nodes.(n.id) <- n) b.bnodes;
  {
    nodes;
    entry = entry.id;
    normal_exit = normal_exit.id;
    exn_exit = exn_exit.id;
    n_loop_heads = b.heads;
  }

(* ------------------------------------------------------------------ *)
(* Forward dataflow engine                                             *)
(* ------------------------------------------------------------------ *)

(* Worklist iteration to a fixpoint; [state.(i)] is the abstract state
   at the *entry* of node [i]. The lattices used here are finite by
   construction (the guard depth saturates, protocol states form a
   finite power set), which is the widening: every ascending chain
   stabilises. *)
let forward cfg ~bot ~init ~join ~eq ~transfer =
  let n = Array.length cfg.nodes in
  let state = Array.make n bot in
  state.(cfg.entry) <- init;
  let in_queue = Array.make n false in
  let queue = Queue.create () in
  Queue.push cfg.entry queue;
  in_queue.(cfg.entry) <- true;
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    in_queue.(i) <- false;
    let out = transfer cfg.nodes.(i) state.(i) in
    List.iter
      (fun s ->
        let merged = join state.(s) out in
        if not (eq merged state.(s)) then begin
          state.(s) <- merged;
          if not in_queue.(s) then begin
            Queue.push s queue;
            in_queue.(s) <- true
          end
        end)
      cfg.nodes.(i).succs
  done;
  state

let mk_diag ~file ~pos ~rule message =
  { L.file; L.line = fst pos; L.col = snd pos; L.rule; L.message }

(* ------------------------------------------------------------------ *)
(* Rule 11: guard balance                                              *)
(* ------------------------------------------------------------------ *)

(* Depth lattice: Bot (unreachable), D n (exact depth, saturating at
   4 = the widening), Top (paths disagree). *)
type gdepth = GBot | GD of int | GTop

let gjoin a b =
  match (a, b) with
  | GBot, x | x, GBot -> x
  | GD m, GD n when m = n -> GD m
  | GTop, _ | _, GTop | GD _, GD _ -> GTop

let gtransfer node st =
  match (node.op, st) with
  | Some (Enter _), GD n -> if n >= 4 then GTop else GD (n + 1)
  | Some (Exit _), GD n -> GD (Int.max 0 (n - 1))
  | _ -> st

(* Returns the definitely-guarded field reads (every reachable [Mark]
   node of the position at depth >= 1 on every reaching path — a local
   helper inlined at two call sites has two) and the imbalance
   diagnostics of one CFG. *)
let guard_analysis ~file cfg =
  let has_guard =
    Array.exists
      (fun n -> match n.op with Some (Enter _ | Exit _) -> true | _ -> false)
      cfg.nodes
  in
  if not has_guard then ([], [])
  else begin
    let state =
      forward cfg ~bot:GBot ~init:(GD 0) ~join:gjoin ~eq:( = )
        ~transfer:gtransfer
    in
    let first_enter = ref None in
    Array.iter
      (fun n ->
        match n.op with
        | Some (Enter p) -> (
            match !first_enter with
            | Some q when q <= p -> ()
            | _ -> first_enter := Some p)
        | _ -> ())
      cfg.nodes;
    let guarded = Hashtbl.create 16 in
    let diags = ref [] in
    let add pos msg =
      let d = mk_diag ~file ~pos ~rule:"guard-balance" msg in
      if not (List.mem d !diags) then diags := d :: !diags
    in
    Array.iter
      (fun n ->
        (match (n.op, state.(n.id)) with
        | Some (Exit p), GD 0 ->
            add p
              "guard exit without a matching enter on some path (depth 0 \
               here): the epoch was never pinned"
        | _ -> ());
        match (n.op, state.(n.id)) with
        | Some (Mark p), GD d ->
            let all = Option.value (Hashtbl.find_opt guarded p) ~default:true in
            Hashtbl.replace guarded p (all && d >= 1)
        | Some (Mark p), GTop -> Hashtbl.replace guarded p false
        | _ -> ())
      cfg.nodes;
    (match (state.(cfg.normal_exit), !first_enter) with
    | GD d, Some anchor when d >= 1 ->
        add anchor
          "guard enter is not matched by an exit on every normal path: the \
           pinned epoch leaks when the operation returns"
    | GTop, Some anchor ->
        add anchor
          "guard depth differs across paths reaching the function's return: \
           some path enters without exiting (or vice versa)"
    | _ -> ());
    (match (state.(cfg.exn_exit), !first_enter) with
    | GD d, Some anchor when d >= 1 ->
        add anchor
          "guard enter is not matched by an exit on every exception path: a \
           raise inside the critical section leaks the pinned epoch; exit in \
           the handler too (compare Ebr.guard)"
    | GTop, Some anchor ->
        add anchor
          "guard depth differs across exception paths: some raising path \
           skips the exit"
    | _ -> ());
    ( Hashtbl.fold (fun p all acc -> if all then p :: acc else acc) guarded [],
      !diags )
  end

(* ------------------------------------------------------------------ *)
(* Rule 12: loop classification                                        *)
(* ------------------------------------------------------------------ *)

type loop_class = Bounded | Cas_retry | Stuck_spin

let loop_class_to_string = function
  | Bounded -> "bounded"
  | Cas_retry -> "cas_retry"
  | Stuck_spin -> "stuck_spin"

type verdict = Blocking | Lock_free

let verdict_to_string = function
  | Blocking -> "blocking"
  | Lock_free -> "lock_free"

type loop_rec = {
  lr_name : string;
  lr_pos : pos;
  lr_class : loop_class;
  lr_reason : string;
  lr_retry : string option;
      (* the loop's shape when it is an unpaced retry (rule 6) *)
}

(* Syntactic effect scans, widened by the summary's transitive callee
   effects at resolved call sites within the expression's line span. *)
type effect_env = {
  call_effects : (pos * Summary.effects) list; (* resolved, this file *)
  deadline_names : (string, unit) Hashtbl.t;
}

let span_effect eenv (l1, l2) pred =
  List.exists
    (fun (((cl, _) : pos), eff) -> cl >= l1 && cl <= l2 && pred eff)
    eenv.call_effects

let eff_touches (e : Summary.effects) =
  (not (Summary.String_set.is_empty e.reads))
  || (not (Summary.String_set.is_empty e.writes))
  || (not (Summary.String_set.is_empty e.rmws))
  || e.has_rmw

let eff_writes (e : Summary.effects) =
  (not (Summary.String_set.is_empty e.writes))
  || (not (Summary.String_set.is_empty e.rmws))
  || e.has_rmw

let expr_has_atomic e =
  L.expr_contains_ident
    (fun lid ->
      L.is_atomic_get lid || L.is_atomic_set lid || L.is_rmw_ident lid)
    e

let expr_has_atomic_write e =
  L.expr_contains_ident
    (fun lid -> L.is_atomic_set lid || L.is_rmw_ident lid)
    e

(* A pacing call (Backoff/relax/yield) in [e], or a resolved call in
   [span] whose callee's transitive effect paces. *)
let paced eenv e span =
  L.expr_contains_ident L.is_pacing_ident e
  || span_effect eenv span (fun eff -> eff.Summary.paces)

let touches_atomics eenv e =
  expr_has_atomic e || span_effect eenv (line_span e.pexp_loc) eff_touches

let writes_atomics eenv e =
  expr_has_atomic_write e || span_effect eenv (line_span e.pexp_loc) eff_writes

let mentions_deadline eenv e =
  L.expr_contains_ident
    (fun lid ->
      let c = L.last_component lid in
      c = "now_ns" || Hashtbl.mem eenv.deadline_names c)
    e

(* Every name bound by a pattern inside the expressions (plus the
   seeds): the "loop-local" set a change-conditioned retry reads
   against. *)
let bound_names seeds exprs =
  let tbl = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace tbl s ()) seeds;
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } -> Hashtbl.replace tbl txt ()
          | Ppat_alias (_, { txt; _ }) -> Hashtbl.replace tbl txt ()
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
    }
  in
  List.iter (fun e -> it.expr it e) exprs;
  tbl

let atomic_get_cells e =
  let acc = ref [] in
  let rec scan e =
    (match e.pexp_desc with
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt; _ }; _ },
          (Asttypes.Nolabel, cell) :: _ )
      when L.is_atomic_get txt ->
        acc := cell :: !acc
    | _ -> ());
    List.iter scan (children e)
  in
  scan e;
  !acc

let comparison_idents = [ "="; "=="; "<>"; "!="; "<"; "<="; ">"; ">=" ]

let is_comparison lid =
  match L.flatten_longident lid with
  | [ op ] -> List.mem op comparison_idents
  | _ -> false

(* A condition "observes change" when it compares an atomic read with a
   loop-local value ([A.get t.top == cur]), or when every atomic read
   in it has a loop-local root (chasing freshly read links). *)
let cond_observes_change locals cond =
  let local_root cell =
    match cell_root cell with Some r -> Hashtbl.mem locals r | None -> false
  in
  let eq_with_local =
    let found = ref false in
    let rec scan e =
      (match e.pexp_desc with
      | Pexp_apply
          ({ pexp_desc = Pexp_ident { txt; _ }; _ }, [ (_, a); (_, b) ])
        when is_comparison txt ->
          let has_get x = atomic_get_cells x <> [] in
          let mentions_local x =
            L.expr_contains_ident
              (fun lid ->
                match L.flatten_longident lid with
                | [ n ] -> Hashtbl.mem locals n
                | _ -> false)
              x
          in
          if (has_get a && mentions_local b) || (has_get b && mentions_local a)
          then found := true
      | _ -> ());
      List.iter scan (children e)
    in
    scan cond;
    !found
  in
  eq_with_local
  ||
  let cells = atomic_get_cells cond in
  cells <> [] && List.for_all local_root cells

(* --- recursive groups ---------------------------------------------- *)

type rec_call = {
  rc_args : expression list; (* positional arguments *)
  rc_conds : expression list; (* enclosing if-conds / match scrutinees *)
}

let collect_rec_calls group_names body =
  let calls = ref [] in
  let rec scan conds e =
    match e.pexp_desc with
    | Pexp_apply
        ({ pexp_desc = Pexp_ident { txt = Longident.Lident n; _ }; _ }, args)
      when List.mem n group_names ->
        calls :=
          {
            rc_args =
              List.filter_map
                (fun (lbl, a) ->
                  if lbl = Asttypes.Nolabel then Some a else None)
                args;
            rc_conds = conds;
          }
          :: !calls;
        List.iter (fun (_, a) -> scan conds a) args
    | Pexp_ident { txt = Longident.Lident n; _ } when List.mem n group_names ->
        (* passed as a value: a call with unknown arguments *)
        calls := { rc_args = []; rc_conds = conds } :: !calls
    | Pexp_ifthenelse (c, t, eo) ->
        scan conds c;
        scan (c :: conds) t;
        Option.iter (scan (c :: conds)) eo
    | Pexp_match (scr, cases) ->
        scan conds scr;
        List.iter
          (fun cs ->
            Option.iter (scan (scr :: conds)) cs.pc_guard;
            scan (scr :: conds) cs.pc_rhs)
          cases
    | _ -> List.iter (scan conds) (children e)
  in
  scan [] body;
  !calls

let param_names vb =
  let rec go acc e =
    match e.pexp_desc with
    | Pexp_fun (_, _, p, b) ->
        let n =
          match p.ppat_desc with Ppat_var { txt; _ } -> txt | _ -> "_"
        in
        go (n :: acc) b
    | _ -> List.rev acc
  in
  go [] vb.pvb_expr

let expr_has_comparison_on p e =
  let found = ref false in
  let rec scan e =
    (match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
      when is_comparison txt ->
        if List.exists (fun (_, a) -> expr_mentions p a) args then
          found := true
    | _ -> ());
    List.iter scan (children e)
  in
  scan e;
  !found

(* [go (remaining - 1)] with a comparison exit anywhere in the body, or
   [attempt (tries + 1)] with every recursive call under a condition
   that compares the counter (so the bound is re-checked each lap). *)
let counter_bounded vb calls =
  let params = param_names vb in
  let body = peel_fun vb.pvb_expr in
  let arg_shape p i call =
    match List.nth_opt call.rc_args i with
    | Some
        {
          pexp_desc =
            Pexp_apply
              ( { pexp_desc = Pexp_ident { txt = Longident.Lident op; _ }; _ },
                ( _,
                  { pexp_desc = Pexp_ident { txt = Longident.Lident a; _ }; _ }
                )
                :: _ );
          _;
        }
      when a = p ->
        if op = "-" then `Down else if op = "+" then `Up else `Other
    | _ -> `Other
  in
  List.exists
    (fun (i, p) ->
      p <> "_" && calls <> []
      &&
      let shapes = List.map (arg_shape p i) calls in
      if List.for_all (( = ) `Down) shapes then expr_has_comparison_on p body
      else if List.for_all (( = ) `Up) shapes then
        List.for_all
          (fun call ->
            List.exists
              (fun c -> expr_mentions p c && expr_has_comparison_on p c)
              call.rc_conds)
          calls
      else false)
    (List.mapi (fun i p -> (i, p)) params)

(* --- per-binding scan: spin sites, while/for loops, rec groups ------ *)

(* [disabled]: one [@await_ok] occurrence (attr-name position) treated
   as absent — the audit's rule-12 probe. [group] is the full binding
   group when this binding heads a structure-level [let rec]. *)
let classify_binding ?disabled eenv ~group vb =
  let loops = ref [] in
  let stuck = ref [] in
  let enabled p = match disabled with Some d -> d <> p | None -> true in
  let awaited_attr attrs =
    match attr_reason "await_ok" attrs with
    | Some p when enabled p -> Some p
    | _ -> None
  in
  let subtree_awaited e =
    let found = ref false in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun it e ->
            if awaited_attr e.pexp_attributes <> None then found := true;
            Ast_iterator.default_iterator.expr it e);
      }
    in
    it.expr it e;
    !found
  in
  let record ?retry name lpos cls reason =
    loops :=
      {
        lr_name = name;
        lr_pos = lpos;
        lr_class = cls;
        lr_reason = reason;
        lr_retry = retry;
      }
      :: !loops;
    if cls = Stuck_spin then stuck := (lpos, reason) :: !stuck
  in
  let classify_while aw e c body =
    let lpos = L.pos_of e.pexp_loc in
    let name = Printf.sprintf "while@%d" (fst lpos) in
    let retry =
      if
        L.expr_contains_ident L.is_atomic_get c
        && not (paced eenv e (line_span e.pexp_loc))
      then Some "while loop on an atomic read"
      else None
    in
    let record = record ?retry in
    if aw <> None || subtree_awaited e then
      record name lpos Bounded "author-certified bounded wait ([@await_ok])"
    else if mentions_deadline eenv c || mentions_deadline eenv body then
      record name lpos Bounded "deadline-bounded (reads now_ns)"
    else if not (touches_atomics eenv e) then
      record name lpos Bounded "no shared atomic state"
    else if writes_atomics eenv body then
      record name lpos Cas_retry "retries a shared-state update"
    else if atomic_get_cells c <> [] then
      record name lpos Stuck_spin
        "read-only wait on an atomic another thread must change"
    else record name lpos Cas_retry "read-only retry on freshly read state"
  in
  let classify_group aw grp =
    let names = List.map fst grp in
    let bodies = List.map (fun (_, vb) -> peel_fun vb.pvb_expr) grp in
    let participating =
      List.exists
        (fun b -> List.exists (fun n -> expr_mentions n b) names)
        bodies
    in
    if participating then begin
      let name = String.concat "/" names in
      let retry =
        if
          List.exists (L.expr_contains_ident L.is_retry_rmw_ident) bodies
          && not
               (List.exists
                  (fun (_, vb) -> paced eenv vb.pvb_expr (line_span vb.pvb_loc))
                  grp)
        then Some (Printf.sprintf "recursive CAS/exchange loop '%s'" name)
        else None
      in
      let record = record ?retry in
      let _, vb0 = List.hd grp in
      let lpos = L.pos_of vb0.pvb_loc in
      let calls = List.concat_map (collect_rec_calls names) bodies in
      let group_awaited =
        aw <> None
        || List.for_all
             (fun (_, vb) ->
               awaited_attr vb.pvb_attributes <> None
               || subtree_awaited vb.pvb_expr)
             grp
      in
      if group_awaited then
        record name lpos Bounded "author-certified bounded wait ([@await_ok])"
      else if
        calls <> []
        && List.for_all
             (fun call -> List.exists (mentions_deadline eenv) call.rc_conds)
             calls
      then
        record name lpos Bounded
          "deadline-bounded (every retry re-checks now_ns)"
      else if
        match grp with
        | [ (n, vb) ] ->
            counter_bounded vb (collect_rec_calls [ n ] (peel_fun vb.pvb_expr))
        | _ -> false
      then record name lpos Bounded "monotone counter with a comparison exit"
      else if not (List.exists (touches_atomics eenv) bodies) then
        record name lpos Bounded "no shared atomic state"
      else if List.exists (writes_atomics eenv) bodies then
        record name lpos Cas_retry "CAS/exchange retry with a fresh read"
      else begin
        (* read-only recursion: stuck unless every retry is gated on
           observed change *)
        let params = List.concat_map (fun (_, vb) -> param_names vb) grp in
        let locals = bound_names params bodies in
        let gated call =
          List.exists
            (L.expr_contains_ident L.is_retry_rmw_ident)
            call.rc_conds
          || List.exists (cond_observes_change locals) call.rc_conds
          (* a retry whose argument is itself freshly read state is a
             structural traversal chasing links, not a wait *)
          || List.exists (fun a -> atomic_get_cells a <> []) call.rc_args
        in
        if calls <> [] && List.for_all gated calls then
          record name lpos Cas_retry "read-only retry gated on observed change"
        else
          record name lpos Stuck_spin
            "read-only recursion waiting for another thread's write"
      end
    end
  in
  let rec scan aw e =
    let aw =
      match awaited_attr e.pexp_attributes with Some p -> Some p | None -> aw
    in
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
      when L.is_spin_wait_ident txt ->
        let lpos = L.pos_of e.pexp_loc in
        let name = Printf.sprintf "spin@%d" (fst lpos) in
        (if aw <> None then
           record name lpos Bounded
             "author-certified bounded wait ([@await_ok])"
         else
           record name lpos Stuck_spin
             "unbounded wait on another thread's write \
              (spin_until/spin_while)");
        List.iter (fun (_, a) -> scan aw a) args
    | Pexp_while (c, body) ->
        classify_while aw e c body;
        scan aw c;
        scan aw body
    | Pexp_for (_, lo, hi, _, body) ->
        record
          (Printf.sprintf "for@%d" (fst (L.pos_of e.pexp_loc)))
          (L.pos_of e.pexp_loc) Bounded "for-loop with static bounds";
        scan aw lo;
        scan aw hi;
        scan aw body
    | Pexp_let (Asttypes.Recursive, vbs, cont) ->
        let grp =
          List.filter_map
            (fun vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ } when is_lambda vb.pvb_expr ->
                  Some (txt, vb)
              | _ -> None)
            vbs
        in
        if grp <> [] then classify_group aw grp;
        List.iter
          (fun vb ->
            let aw' =
              match awaited_attr vb.pvb_attributes with
              | Some p -> Some p
              | None -> aw
            in
            scan aw' vb.pvb_expr)
          vbs;
        scan aw cont
    | _ -> List.iter (scan aw) (children e)
  in
  (match group with
  | Some grp when grp <> [] -> classify_group None grp
  | _ -> ());
  scan (awaited_attr vb.pvb_attributes) vb.pvb_expr;
  (List.rev !loops, List.rev !stuck)

(* ------------------------------------------------------------------ *)
(* Units, files, the analysis state                                    *)
(* ------------------------------------------------------------------ *)

type unit_info = {
  u_id : int;
  u_name : string;
  u_file : string;
  u_span : int * int;
  u_cfg : cfg;
  u_vb : value_binding;
  u_group : (string * value_binding) list option;
  u_eenv : effect_env;
  mutable u_calls : int list; (* resolved callee unit ids (global) *)
  u_stuck : (pos * string) list;
  u_loops : loop_rec list;
}

type file_info = {
  f_units : int list; (* global unit ids, definition order *)
  f_automata : automaton list;
  f_progress : (string * pos) option;
  f_reads : (pos * string) list;
      (* node-field reads the CFG does not prove guarded *)
  f_unguarded : (pos * (pos * pos)) list;
      (* [@unguarded_ok] attr-name occurrence -> its expression's extent *)
  f_awaits : pos list; (* [@await_ok] attr-name occurrences *)
  mutable f_base : L.diagnostic list; (* guard + protocol diags *)
  mutable f_blocking : bool;
}

type t = {
  units : unit_info array;
  files : (string * file_info) list;
  progress_diags : L.diagnostic list; (* baseline rule-12 diags *)
  summary : Summary.env;
  scope : L.scope option;
  corpus : (string * Parsetree.structure) list; (* every parsed file *)
}

(* --- structure -> units ------------------------------------------- *)

(* [node_fields] are the fields whose reads rule 4 checks (none outside
   EBR modules). *)
let collect_structure ~node_fields structure =
  let raw = ref [] in
  let progress = ref None in
  let protocols = ref [] in
  let reads = ref [] in
  let unguarded = ref [] in
  let awaits = ref [] in
  let rec do_structure str = List.iter do_item str
  and do_item si =
    match si.pstr_desc with
    | Pstr_value (rf, vbs) ->
        List.iter
          (fun vb ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt; _ } -> raw := (txt, vb, rf, vbs) :: !raw
            | _ -> ())
          vbs
    | Pstr_attribute attr when attr.attr_name.Location.txt = "progress" -> (
        match (L.string_payload attr, !progress) with
        | Some p, None -> progress := Some (p, L.pos_of attr.attr_loc)
        | _ -> ())
    | Pstr_attribute attr when attr.attr_name.Location.txt = "protocol" ->
        protocols :=
          (L.string_payload attr, L.pos_of attr.attr_loc) :: !protocols
    | Pstr_module mb -> do_module mb.pmb_expr
    | Pstr_recmodule mbs -> List.iter (fun mb -> do_module mb.pmb_expr) mbs
    | _ -> ()
  and do_module me =
    match me.pmod_desc with
    | Pmod_structure str -> do_structure str
    | Pmod_functor (_, body) -> do_module body
    | Pmod_constraint (m, _) -> do_module m
    | _ -> ()
  in
  do_structure structure;
  (* rule 4's node-field reads and [@unguarded_ok] extents, and every
     reasoned [@await_ok] occurrence, for the audit probe *)
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_field (_, { txt; loc })
            when List.mem (L.last_component txt) node_fields ->
              reads := (L.pos_of loc, L.last_component txt) :: !reads
          | _ -> ());
          (match attr_reason "unguarded_ok" e.pexp_attributes with
          | Some a ->
              let stop = e.pexp_loc.Location.loc_end in
              unguarded :=
                ( a,
                  ( L.pos_of e.pexp_loc,
                    (stop.Lexing.pos_lnum, stop.pos_cnum - stop.pos_bol) ) )
                :: !unguarded
          | None -> ());
          Ast_iterator.default_iterator.expr it e);
      attribute =
        (fun it a ->
          (if a.attr_name.Location.txt = "await_ok" then
             match L.string_payload a with
             | Some s when String.trim s <> "" ->
                 awaits := L.pos_of a.attr_name.Location.loc :: !awaits
             | _ -> ());
          Ast_iterator.default_iterator.attribute it a);
    }
  in
  it.structure it structure;
  ( List.rev !raw,
    !progress,
    List.rev !protocols,
    List.rev !reads,
    !unguarded,
    List.rev !awaits )

let deadline_names_of vbs =
  let tbl = Hashtbl.create 4 in
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun it vb ->
          (match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt; _ }
            when L.expr_contains_ident
                   (fun lid -> L.last_component lid = "now_ns")
                   vb.pvb_expr ->
              Hashtbl.replace tbl txt ()
          | _ -> ());
          Ast_iterator.default_iterator.value_binding it vb);
    }
  in
  List.iter (fun vb -> it.value_binding it vb) vbs;
  tbl

(* ------------------------------------------------------------------ *)
(* Rule 13 over the CFGs                                               *)
(* ------------------------------------------------------------------ *)

let step auto mask kind field =
  if not (Hashtbl.mem auto.a_declared (kind, field)) then `Ignore
  else begin
    let next = ref 0 in
    Array.iteri
      (fun s _ ->
        if mask land (1 lsl s) <> 0 then
          match Hashtbl.find_opt auto.a_trans (s, kind, field) with
          | Some ds -> List.iter (fun d -> next := !next lor (1 lsl d)) ds
          | None -> ())
      auto.a_states;
    if !next = 0 && mask <> 0 then `Violation else `Next !next
  end

let mask_states auto mask =
  let acc = ref [] in
  Array.iteri
    (fun s name -> if mask land (1 lsl s) <> 0 then acc := name :: !acc)
    auto.a_states;
  String.concat "," (List.rev !acc)

(* Check one automaton over every top-level unit of [file], each from
   the start state. Calls resolving to same-file top-level units are
   stepped through by running the callee's CFG from the caller's state
   set (memoised per (unit, entry mask); recursion falls back to
   identity). Violations are reported after the fixpoint, from the
   final entry states, so each faulting access is diagnosed once. *)
let protocol_check ~file ~units ~file_unit_ids ~call_unit auto =
  let memo = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 16 in
  let rec run (u : unit_info) init_mask =
    let transfer node mask =
      if mask = 0 then 0
      else
        match node.op with
        | Some (Atomic (kind, field, _)) -> (
            match step auto mask kind field with
            | `Ignore -> mask
            | `Next m -> m
            | `Violation ->
                (* poison: kill the path so the violation doesn't feed
                   a loop back edge a recovered state set that would
                   mask it at the post-fixpoint check (and so one fault
                   doesn't cascade into downstream diagnostics) *)
                0)
        | Some (Callsite cpos) -> (
            match Hashtbl.find_opt call_unit cpos with
            | Some cid when cid <> u.u_id -> callee_exit units.(cid) mask
            | _ -> mask)
        | _ -> mask
    in
    forward u.u_cfg ~bot:0 ~init:init_mask ~join:( lor ) ~eq:( = ) ~transfer
  and callee_exit (u : unit_info) mask =
    match Hashtbl.find_opt memo (u.u_id, mask) with
    | Some m -> m
    | None ->
        if Hashtbl.mem on_stack (u.u_id, mask) then mask
        else begin
          Hashtbl.replace on_stack (u.u_id, mask) ();
          let st = run u mask in
          Hashtbl.remove on_stack (u.u_id, mask);
          let out = st.(u.u_cfg.normal_exit) in
          let out = if out = 0 then mask else out in
          Hashtbl.replace memo (u.u_id, mask) out;
          out
        end
  in
  let diags = ref [] in
  List.iter
    (fun uid ->
      let u = units.(uid) in
      let st = run u 1 in
      Array.iter
        (fun node ->
          match node.op with
          | Some (Atomic (kind, field, apos)) when st.(node.id) <> 0 -> (
              match step auto st.(node.id) kind field with
              | `Violation ->
                  diags :=
                    mk_diag ~file ~pos:apos ~rule:"protocol"
                      (Printf.sprintf
                         "automaton '%s': %s of '%s' has no enabled \
                          transition from state {%s} — the declared order \
                          of atomic accesses is violated on this path"
                         auto.a_name (kind_to_string kind) field
                         (mask_states auto st.(node.id)))
                    :: !diags
              | _ -> ())
          | _ -> ())
        u.u_cfg.nodes)
    file_unit_ids;
  List.sort_uniq compare !diags

(* ------------------------------------------------------------------ *)
(* Rule 12: reachability + verdicts                                    *)
(* ------------------------------------------------------------------ *)

(* Per file: is a stuck wait reachable through the resolved call graph,
   and the rule-12 declaration diagnostics. [stuck_of] abstracts the
   per-unit stuck sets so the audit probe can override one file's. *)
let progress_view units files ~stuck_of =
  let n = Array.length units in
  (* reachability is a fixpoint over the call edges, so it does not
     depend on the order a search would visit a call cycle in *)
  let reaches = Array.init n (fun i -> stuck_of i <> []) in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun i u ->
        if (not reaches.(i)) && List.exists (fun c -> reaches.(c)) u.u_calls
        then begin
          reaches.(i) <- true;
          changed := true
        end)
      units
  done;
  (* the witness [(file, pos, reason)]: the first stuck wait a
     depth-first search through reaching units finds *)
  let witness i =
    let seen = Array.make n false in
    let rec go i =
      seen.(i) <- true;
      match stuck_of i with
      | (p, r) :: _ -> Some (units.(i).u_file, p, r)
      | [] ->
          List.fold_left
            (fun acc c ->
              match acc with
              | None when reaches.(c) && not seen.(c) -> go c
              | _ -> acc)
            None units.(i).u_calls
    in
    go i
  in
  let blocking = ref [] in
  let diags = ref [] in
  List.iter
    (fun (fname, fi) ->
      let w =
        Option.bind (List.find_opt (fun u -> reaches.(u)) fi.f_units) witness
      in
      blocking := (fname, w <> None) :: !blocking;
      match fi.f_progress with
      | None -> ()
      | Some (decl, dpos) -> (
          match (w, String.trim decl) with
          | Some (wf, (wl, _), reason), "lock_free" ->
              diags :=
                mk_diag ~file:fname ~pos:dpos ~rule:"loop-progress"
                  (Printf.sprintf
                     "declared lock_free, but a stuck wait is statically \
                      reachable from a top-level operation: %s:%d (%s)"
                     (Filename.basename wf) wl reason)
                :: !diags
          | None, "blocking" ->
              diags :=
                mk_diag ~file:fname ~pos:dpos ~rule:"loop-progress"
                  "declared blocking, but no stuck wait is statically \
                   reachable from any top-level operation: the static \
                   verdict is lock_free (either the declaration or the \
                   analysis is out of date)"
                :: !diags
          | _ -> ()))
    files;
  (!blocking, List.rev !diags)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let diag_order (a : L.diagnostic) (b : L.diagnostic) =
  compare
    (a.L.file, a.L.line, a.L.col, a.L.rule)
    (b.L.file, b.L.line, b.L.col, b.L.rule)

let scope_for scope file =
  match scope with Some s -> s | None -> L.scope_of_path file

let analyze ~summary ?scope corpus =
  let parsed =
    List.filter
      (fun (file, _) -> (scope_for scope file).L.check_discipline)
      corpus
  in
  let units = ref [] (* reversed *) in
  let n_units = ref 0 in
  let files =
    List.map
      (fun (file, str) ->
        let node_fields =
          if L.structure_uses_reclamation str then L.node_fields str else []
        in
        let raw, progress, protocols, reads, unguarded, awaits =
          collect_structure ~node_fields str
        in
        let call_effects =
          List.map
            (fun (cpos, (key, _, _)) ->
              (cpos, Summary.total_effects summary key))
            (Summary.resolved_calls summary ~file)
        in
        let automata = ref [] in
        let proto_diags = ref [] in
        List.iter
          (fun (payload, ppos) ->
            match payload with
            | None ->
                proto_diags :=
                  mk_diag ~file ~pos:ppos ~rule:"protocol"
                    "[@@@protocol] needs a string payload: \"name: s1 \
                     -kind:field-> s2; ...\""
                  :: !proto_diags
            | Some p -> (
                match parse_automaton p with
                | Ok a -> automata := a :: !automata
                | Error e ->
                    proto_diags :=
                      mk_diag ~file ~pos:ppos ~rule:"protocol"
                        (Printf.sprintf "malformed [@@@protocol] payload: %s"
                           e)
                      :: !proto_diags))
          protocols;
        let guarded = Hashtbl.create 64 in
        let base = ref (List.rev !proto_diags) in
        let ids =
          List.map
            (fun (name, vb, rf, vbs) ->
              let group =
                match rf with
                | Asttypes.Nonrecursive -> None
                | Asttypes.Recursive -> (
                    match vbs with
                    | first :: _ when first == vb ->
                        let grp =
                          List.filter_map
                            (fun vb ->
                              match vb.pvb_pat.ppat_desc with
                              | Ppat_var { txt; _ }
                                when is_lambda vb.pvb_expr ->
                                  Some (txt, vb)
                              | _ -> None)
                            vbs
                        in
                        if grp = [] then None else Some grp
                    | _ -> None)
              in
              let eenv =
                {
                  call_effects;
                  deadline_names =
                    deadline_names_of
                      (match group with
                      | Some grp -> List.map snd grp
                      | None -> [ vb ]);
                }
              in
              let cfg = build_cfg (peel_fun vb.pvb_expr) in
              let gpos, gdiags = guard_analysis ~file cfg in
              List.iter (fun p -> Hashtbl.replace guarded p ()) gpos;
              base := gdiags @ !base;
              let lps, stk = classify_binding eenv ~group vb in
              let u =
                {
                  u_id = !n_units;
                  u_name = name;
                  u_file = file;
                  u_span = line_span vb.pvb_loc;
                  u_cfg = cfg;
                  u_vb = vb;
                  u_group = group;
                  u_eenv = eenv;
                  u_calls = [];
                  u_stuck = stk;
                  u_loops = lps;
                }
              in
              incr n_units;
              units := u :: !units;
              u.u_id)
            raw
        in
        ( file,
          {
            f_units = ids;
            f_automata = List.rev !automata;
            f_progress = progress;
            f_reads =
              List.filter (fun (p, _) -> not (Hashtbl.mem guarded p)) reads;
            f_unguarded = unguarded;
            f_awaits = awaits;
            f_base = !base;
            f_blocking = false;
          } ))
      parsed
  in
  let units = Array.of_list (List.rev !units) in
  (* resolve call edges (rule 12, cross-file) and run the protocol
     automata (rule 13, same-file) now that every unit exists *)
  let unit_containing file line =
    match List.assoc_opt file files with
    | None -> None
    | Some fi ->
        List.find_opt
          (fun uid ->
            let l1, l2 = units.(uid).u_span in
            line >= l1 && line <= l2)
          fi.f_units
  in
  List.iter
    (fun (file, fi) ->
      (* same-file call table for the protocol transfer: only calls
         whose callee is itself a top-level unit of this file *)
      let key_unit = Hashtbl.create 32 in
      List.iter
        (fun (key, (kl, _)) ->
          match unit_containing file kl with
          | Some uid when fst units.(uid).u_span = kl ->
              Hashtbl.replace key_unit key uid
          | _ -> ())
        (Summary.file_functions summary ~file);
      let call_unit = Hashtbl.create 64 in
      List.iter
        (fun ((cpos : pos), (key, cfile, (cs, _))) ->
          (* rule-12 edge: caller unit -> callee unit, any file *)
          (match
             (unit_containing file (fst cpos), unit_containing cfile cs)
           with
          | Some caller, Some callee ->
              if not (List.mem callee units.(caller).u_calls) then
                units.(caller).u_calls <- callee :: units.(caller).u_calls
          | _ -> ());
          (* rule-13 transfer: same-file, top-level callees only *)
          if cfile = file then
            match Hashtbl.find_opt key_unit key with
            | Some uid -> Hashtbl.replace call_unit cpos uid
            | None -> ())
        (Summary.resolved_calls summary ~file);
      List.iter
        (fun auto ->
          fi.f_base <-
            fi.f_base
            @ protocol_check ~file ~units ~file_unit_ids:fi.f_units ~call_unit
                auto)
        fi.f_automata)
    files;
  let blocking, pdiags =
    progress_view units files ~stuck_of:(fun i -> units.(i).u_stuck)
  in
  List.iter
    (fun (file, fi) ->
      fi.f_blocking <- List.assoc_opt file blocking = Some true)
    files;
  { units; files; progress_diags = pdiags; summary; scope; corpus }

(* ------------------------------------------------------------------ *)
(* Rules 4 and 6: queries over guard depths and loop records           *)
(* ------------------------------------------------------------------ *)

(* Rule 4: the candidate reads neither the summary's guard context
   ([guarded], {!Summary.guarded_at}) discharges nor an [@unguarded_ok]
   extent covers ([disabled]: one occurrence treated as absent — the
   audit probe). *)
let guard_diags ~guarded ~file ?disabled fi =
  let covered p =
    guarded ~file p
    || List.exists
         (fun (a, (start, stop)) -> Some a <> disabled && start <= p && p < stop)
         fi.f_unguarded
  in
  List.filter_map
    (fun (p, field) ->
      if covered p then None
      else
        Some
          (mk_diag ~file ~pos:p ~rule:"ebr-guard"
             (Printf.sprintf
                "read of node field '%s' outside a guard extent in an EBR \
                 module: a concurrent retirement makes this a \
                 use-after-free; wrap the access in Ebr.guard, or annotate \
                 it [@unguarded_ok \"why the caller holds the guard\"]"
                field)))
    fi.f_reads

(* Rule 6: the unpaced retry loops the classifier did not prove
   bounded. *)
let retry_diags ~file loops =
  List.filter_map
    (fun lr ->
      match lr.lr_retry with
      | Some shape when lr.lr_class <> Bounded ->
          Some
            (mk_diag ~file ~pos:lr.lr_pos ~rule:"retry-discipline"
               (Printf.sprintf
                  "%s retries on a shared atomic without pacing: add a \
                   Backoff call (once/spin_until/spin_while), a substrate \
                   relax/yield, or — if the wait is bounded by protocol — \
                   annotate it [@await_ok \"why the wait is bounded\"]"
                  shape))
      | _ -> None)
    loops

let file_loops t fi =
  List.concat_map (fun uid -> t.units.(uid).u_loops) fi.f_units

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let diagnostics t =
  List.sort diag_order
    (t.progress_diags @ List.concat_map (fun (_, fi) -> fi.f_base) t.files)

let verdict_of t ~file =
  match List.assoc_opt file t.files with
  | Some fi when fi.f_units <> [] ->
      Some (if fi.f_blocking then Blocking else Lock_free)
  | _ -> None

let declared_progress t ~file =
  match List.assoc_opt file t.files with
  | Some fi -> Option.map (fun (d, _) -> String.trim d) fi.f_progress
  | None -> None

let loops t ~file =
  match List.assoc_opt file t.files with
  | None -> []
  | Some fi ->
      List.concat_map
        (fun uid ->
          let u = t.units.(uid) in
          List.map
            (fun lr ->
              (u.u_name, lr.lr_name, fst lr.lr_pos, lr.lr_class, lr.lr_reason))
            u.u_loops)
        fi.f_units
      |> List.sort (fun (_, _, a, _, _) (_, _, b, _, _) -> compare a b)

let automata_of t ~file =
  match List.assoc_opt file t.files with
  | None -> []
  | Some fi -> List.map (fun a -> a.a_name) fi.f_automata

(* The rule-4 diagnostics of every file, with one [@unguarded_ok]
   occurrence ignored by both the extents and the summary's guard
   context when [without] is given. *)
let corpus_guard_diags ?without t =
  let guarded = Summary.guarded_at ?without t.summary in
  List.concat_map
    (fun (file, fi) ->
      let disabled =
        match without with Some (f, p) when f = file -> Some p | _ -> None
      in
      guard_diags ~guarded ~file ?disabled fi)
    t.files

(* [--audit]: each annotation occurrence is decided by the analysis that
   owns its rule — live iff ignoring that one occurrence changes that
   analysis' diagnostics, which is what deleting it and relinting would
   show. [@unguarded_ok] and [@await_ok] are decided here (rule 4, and
   rules 6 and 12 together), [@retire_ok] and [@publication_ok] by the
   summary (rules 5 and 10), the rest by the per-file rules. *)
let audit t =
  let guard_base = lazy (corpus_guard_diags t) in
  let summary_base = lazy (Summary.diagnostics t.summary) in
  let probe file (ann : L.annotation) =
    let at = (ann.ann_line, ann.ann_col) in
    match (ann.ann_name, List.assoc_opt file t.files) with
    | "unguarded_ok", _ ->
        Some (corpus_guard_diags ~without:(file, at) t <> Lazy.force guard_base)
    | ("retire_ok" | "publication_ok"), _ ->
        Some
          (Summary.diagnostics ~without:(file, at) t.summary
          <> Lazy.force summary_base)
    | "await_ok", Some fi when List.mem at fi.f_awaits ->
        (* reclassify this file's units with the occurrence disabled;
           await extents are file-local, so only these loops can
           change — then recompute every verdict (reachability
           crosses files) *)
        let reclassified =
          List.map
            (fun uid ->
              let u = t.units.(uid) in
              ( uid,
                classify_binding ~disabled:at u.u_eenv ~group:u.u_group u.u_vb
              ))
            fi.f_units
        in
        let _, pdiags =
          progress_view t.units t.files ~stuck_of:(fun i ->
              match List.assoc_opt i reclassified with
              | Some (_, stk) -> stk
              | None -> t.units.(i).u_stuck)
        in
        let loops = List.concat_map (fun (_, (l, _)) -> l) reclassified in
        Some
          (pdiags <> t.progress_diags
          || retry_diags ~file loops <> retry_diags ~file (file_loops t fi))
    | _ -> None
  in
  List.concat_map
    (fun (file, structure) ->
      List.map
        (fun e -> (file, e))
        (L.audit_structure ~probe:(probe file) ~file
           ~scope:(scope_for t.scope file) structure))
    t.corpus

let cfg_stats t ~file =
  match List.assoc_opt file t.files with
  | None -> (0, 0, 0)
  | Some fi ->
      List.fold_left
        (fun (nu, nn, nh) uid ->
          let u = t.units.(uid) in
          (nu + 1, nn + Array.length u.u_cfg.nodes, nh + u.u_cfg.n_loop_heads))
        (0, 0, 0) fi.f_units

(* ------------------------------------------------------------------ *)
(* Corpus entry point                                                  *)
(* ------------------------------------------------------------------ *)

(* Lint [sources] as one corpus: each file read and parsed once, one
   summary environment and one typestate analysis over the parsetrees,
   each file's per-file rule diagnostics, plus the summary's rules 5 and
   10, the typestate rules 11-13 and the rule 4/6 queries. *)
let check_sources ?scope sources =
  let parsed =
    List.map (fun (file, src) -> (file, L.parse_string ~file src)) sources
  in
  let ok =
    List.filter_map
      (fun (file, r) ->
        match r with Ok str -> Some (file, str) | Error _ -> None)
      parsed
  in
  let summary = Summary.analyze ?scope ok in
  let ts = analyze ~summary ?scope ok in
  let diagnostics =
    List.concat_map
      (fun (file, r) ->
        match r with
        | Ok str -> L.check_structure ~file ~scope:(scope_for scope file) str
        | Error d -> [ d ])
      parsed
    @ Summary.diagnostics summary
    @ diagnostics ts
    @ corpus_guard_diags ts
    @ List.concat_map
        (fun (file, fi) -> retry_diags ~file (file_loops ts fi))
        ts.files
  in
  (summary, ts, List.sort diag_order diagnostics)

let check_corpus ?scope files =
  check_sources ?scope (List.map (fun file -> (file, L.read_file file)) files)
