(* Interprocedural atomic-effect summaries. See summary.mli for the
   model; docs/ANALYSIS.md ("Static prong: interprocedural summaries")
   for the prose version. *)

module L = Sec_lint_rules.Lint_rules
module String_set = Set.Make (String)
open Parsetree

type effects = {
  reads : String_set.t;
  writes : String_set.t;
  rmws : String_set.t;
  paces : bool;
  has_rmw : bool;
  guards : bool;
  retires : bool;
}

let no_effects =
  {
    reads = String_set.empty;
    writes = String_set.empty;
    rmws = String_set.empty;
    paces = false;
    has_rmw = false;
    guards = false;
    retires = false;
  }

let union_effects a b =
  {
    reads = String_set.union a.reads b.reads;
    writes = String_set.union a.writes b.writes;
    rmws = String_set.union a.rmws b.rmws;
    paces = a.paces || b.paces;
    has_rmw = a.has_rmw || b.has_rmw;
    guards = a.guards || b.guards;
    retires = a.retires || b.retires;
  }

let eq_effects a b =
  String_set.equal a.reads b.reads
  && String_set.equal a.writes b.writes
  && String_set.equal a.rmws b.rmws
  && a.paces = b.paces && a.has_rmw = b.has_rmw && a.guards = b.guards
  && a.retires = b.retires

(* ------------------------------------------------------------------ *)
(* Function records and events                                         *)
(* ------------------------------------------------------------------ *)

(* Why a site is covered for one obligation: structurally ([lex]:
   inside a guard call or a CAS-selected branch), or by the annotation
   occurrences [anns] (positions of the attribute names) whose extent
   contains it. Keeping the occurrences lets the audit ask whether a
   site stays covered with one of them ignored. *)
type cover = { lex : bool; anns : (int * int) list }

let no_cover = { lex = false; anns = [] }

(* [without] is one annotation occurrence, (file, position), treated as
   absent; [file] is the site's. *)
let covered ?without file c =
  c.lex || List.exists (fun p -> without <> Some (file, p)) c.anns

type call = {
  clid : Longident.t;
  cline : int;
  ccol : int;
  cg : cover;  (* under a guard call / [@unguarded_ok] *)
  cc : cover;  (* in a CAS-selected branch / under [@retire_ok] *)
  cp : cover;  (* under [@publication_ok] *)
  lam_spans : (int * int) list;  (* line spans of literal lambda args *)
  mutable callee : string option;  (* resolved function key *)
}

(* A rule-5 retire call: the (line, col) of the whole expression, its
   lexical cover, and whether the rule applies (the file is armed). *)
type site = { spos : int * int; scov : cover; checked : bool }

type event =
  | Read of string
  | Write of { wcell : string; wline : int; wcol : int; supp : cover }
  | Rmw of { rcell : string; rline : int }
  | Pace
  | Guard_enter
  | Retire of site
  | Call of call

type fn = {
  key : string;
  file : string;
  ns : string;
  parent : string option;
  span : int * int;  (* line span of the defining binding *)
  params : (string, unit) Hashtbl.t;
  locals : (string, string) Hashtbl.t;  (* nested fn name -> key *)
  top_level : bool;
  mutable events : event list;  (* reversed during construction *)
  mutable wrapper : bool;  (* guard wrapper: guards a bare fn parameter *)
  mutable exported : bool;
}

let events_of fn = List.rev fn.events

type env = {
  fns : (string, fn) Hashtbl.t;
  mutable order : string list;  (* reversed definition order *)
  members : (string, string) Hashtbl.t;  (* "ns.name" -> fn key *)
  subs : (string, string) Hashtbl.t;  (* "ns.Name" -> child ns *)
  raw_aliases : (string, string * Longident.t) Hashtbl.t;
      (* "ns.Name" -> (defining ns, rhs head path) *)
  stems : (string, string) Hashtbl.t;  (* "Exchanger" -> "exchanger" *)
  modtypes_full : (string, String_set.t) Hashtbl.t;  (* "stem.S" -> vals *)
  modtypes_name : (string, String_set.t option) Hashtbl.t;
      (* bare name -> vals, None once ambiguous *)
  mutable constraints : (string * Longident.t) list;  (* ns, sig path *)
  ns_top : (string, (string * string) list ref) Hashtbl.t;
  file_scope : (string, L.scope) Hashtbl.t;
  mutable file_order : string list;  (* reversed *)
  mutable anon : int;
  totals : (string, effects) Hashtbl.t;
  mutable entry_set : String_set.t;
  mutable eff_rounds : int;
  calls : (string, fn * call) Hashtbl.t;  (* callee key -> call sites *)
  mutable cg_tbl : (string, bool) Hashtbl.t;
  guard_spans : (string, (int * int) list ref) Hashtbl.t;  (* per file *)
  writers_tbl : (string, String_set.t) Hashtbl.t;  (* cell -> entries *)
}

let new_env () =
  {
    fns = Hashtbl.create 128;
    order = [];
    members = Hashtbl.create 128;
    subs = Hashtbl.create 16;
    raw_aliases = Hashtbl.create 16;
    stems = Hashtbl.create 32;
    modtypes_full = Hashtbl.create 16;
    modtypes_name = Hashtbl.create 16;
    constraints = [];
    ns_top = Hashtbl.create 32;
    file_scope = Hashtbl.create 32;
    file_order = [];
    anon = 0;
    totals = Hashtbl.create 128;
    entry_set = String_set.empty;
    eff_rounds = 0;
    calls = Hashtbl.create 128;
    cg_tbl = Hashtbl.create 0;
    guard_spans = Hashtbl.create 16;
    writers_tbl = Hashtbl.create 64;
  }

let make_fn env ~key ~file ~ns ~parent ~span ~top_level =
  let fn =
    {
      key;
      file;
      ns;
      parent;
      span;
      params = Hashtbl.create 4;
      locals = Hashtbl.create 4;
      top_level;
      events = [];
      wrapper = false;
      exported = top_level;
    }
  in
  Hashtbl.replace env.fns key fn;
  env.order <- key :: env.order;
  fn

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let line_span (loc : Location.t) =
  (loc.loc_start.pos_lnum, loc.loc_end.pos_lnum)

let stem_of file = Filename.remove_extension (Filename.basename file)

let pat_vars pat =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } -> acc := txt :: !acc
          | Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
    }
  in
  it.pat it pat;
  !acc

(* [c] extended by a reasoned [name] annotation among [attrs]. *)
let annotate name attrs c =
  match L.find_attr name attrs with
  | Some a -> (
      match L.string_payload a with
      | Some s when String.trim s <> "" ->
          { c with anns = L.pos_of a.attr_name.loc :: c.anns }
      | _ -> c)
  | None -> c

(* ------------------------------------------------------------------ *)
(* Extraction walker                                                   *)
(* ------------------------------------------------------------------ *)

type fctx = {
  file : string;
  stem : string;
  retire_rule : bool;  (* rule 5 armed: discipline scope, references Ebr *)
}

type wctx = {
  fc : fctx;
  f : fn;
  g : cover;
  cas : cover;
  pb : cover;
  al : (string * string) list;  (* local alias -> cell key *)
}

let emit ctx ev = ctx.f.events <- ev :: ctx.f.events

let enter_attrs ctx (attrs : attributes) =
  if attrs = [] then ctx
  else
    {
      ctx with
      g = annotate "unguarded_ok" attrs ctx.g;
      cas = annotate "retire_ok" attrs ctx.cas;
      pb = annotate "publication_ok" attrs ctx.pb;
    }

(* A cell expression that denotes a record field (through array
   indexing and type constraints), or nothing. *)
let rec syntactic_cell ctx e =
  match e.pexp_desc with
  | Pexp_field (_, lid) -> Some (ctx.fc.stem ^ "." ^ L.last_component lid.txt)
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (_, arr) :: _)
    when L.is_array_get txt ->
      syntactic_cell ctx arr
  | Pexp_constraint (e', _) -> syntactic_cell ctx e'
  | _ -> None

let cell_key env ctx e =
  match syntactic_cell ctx e with
  | Some c -> c
  | None -> (
      match e.pexp_desc with
      | Pexp_ident { txt = Longident.Lident x; _ } -> (
          match List.assoc_opt x ctx.al with
          | Some c -> c
          | None -> ctx.f.key ^ ".$" ^ x)
      | _ ->
          env.anon <- env.anon + 1;
          ctx.f.key ^ ".?" ^ string_of_int env.anon)

(* The lint's [is_rmw_ident] matches on the last path component alone,
   which is fine for its lexical rules but would classify e.g.
   [Exchanger.exchange] as an atomic RMW here — swallowing the call
   (losing pacing propagation) and inventing an ordering RMW. Require
   an atomic-looking owner for qualified names; unqualified, only the
   unambiguous operation names count. *)
let is_atomic_rmw lid =
  L.is_rmw_ident lid
  &&
  match List.rev (L.flatten_longident lid) with
  | _ :: owner :: _ -> owner = "A" || owner = "Atomic" || owner = "Counter"
  | [ op ] -> op = "compare_and_set" || op = "fetch_and_add"
  | [] -> false

let is_lambda e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
  | _ -> false

let var_name pat =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> Some txt
  | _ -> None

(* The rule-5 gate: branches selected by a condition or scrutinee that
   contains [compare_and_set]. *)
let cas_branch ctx cond =
  if L.expr_contains_ident L.is_cas_ident cond then
    { ctx with cas = { ctx.cas with lex = true } }
  else ctx

let rec walk env ctx e =
  let ctx = enter_attrs ctx e.pexp_attributes in
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = lid; _ }; _ }, args) ->
      walk_apply env ctx e lid args
  | Pexp_let (_, vbs, body) -> walk_let env ctx vbs body
  | Pexp_ifthenelse (c, t, f) ->
      walk env ctx c;
      let branch = cas_branch ctx c in
      walk env branch t;
      Option.iter (walk env branch) f
  | Pexp_match (scr, cases) ->
      walk env ctx scr;
      let branch = cas_branch ctx scr in
      List.iter
        (fun c ->
          Option.iter (walk env branch) c.pc_guard;
          walk env branch c.pc_rhs)
        cases
  | Pexp_function cases ->
      List.iter
        (fun c ->
          Option.iter (walk env ctx) c.pc_guard;
          walk env ctx c.pc_rhs)
        cases
  | Pexp_fun (_, dflt, _, body) ->
      (* anonymous lambda: inline into the enclosing function *)
      Option.iter (walk env ctx) dflt;
      walk env ctx body
  | Pexp_record (fields, base) ->
      Option.iter (walk env ctx) base;
      List.iter (fun (_, fe) -> walk env ctx fe) fields
  | Pexp_sequence (a, b) ->
      walk env ctx a;
      walk env ctx b
  | Pexp_while (cond, body) ->
      walk env ctx cond;
      walk env ctx body
  | _ -> walk_children env ctx e

and walk_children env ctx e =
  let it =
    {
      Ast_iterator.default_iterator with
      expr = (fun _ e' -> walk env ctx e');
    }
  in
  Ast_iterator.default_iterator.expr it e

and walk_apply env ctx e lid args =
  let pos_args =
    List.filter_map
      (fun (l, a) -> if l = Asttypes.Nolabel then Some a else None)
      args
  in
  let walk_args ctx = List.iter (fun (_, a) -> walk env ctx a) args in
  if L.is_atomic_get lid then (
    walk_args ctx;
    match pos_args with
    | cell :: _ -> emit ctx (Read (cell_key env ctx cell))
    | [] -> ())
  else if L.is_atomic_set lid then (
    (* argument (the stored value) evaluates before the store *)
    walk_args ctx;
    match pos_args with
    | cell :: _ ->
        let wline, wcol = L.pos_of e.pexp_loc in
        emit ctx
          (Write { wcell = cell_key env ctx cell; wline; wcol; supp = ctx.pb })
    | [] -> ())
  else if is_atomic_rmw lid then (
    walk_args ctx;
    match pos_args with
    | cell :: _ ->
        let rline, _ = L.pos_of e.pexp_loc in
        emit ctx (Rmw { rcell = cell_key env ctx cell; rline })
    | [] -> ())
  else if L.is_pacing_ident lid || L.is_spin_wait_ident lid then (
    emit ctx Pace;
    walk_args ctx)
  else if L.is_guard_call lid then (
    emit ctx Guard_enter;
    (match List.rev pos_args with
    | { pexp_desc = Pexp_ident { txt = Longident.Lident x; _ }; _ } :: _
      when Hashtbl.mem ctx.f.params x ->
        ctx.f.wrapper <- true
    | _ -> ());
    walk_args { ctx with g = { ctx.g with lex = true } })
  else if L.is_retire_call lid then (
    emit ctx
      (Retire
         {
           spos = L.pos_of e.pexp_loc;
           scov = ctx.cas;
           checked = ctx.fc.retire_rule;
         });
    walk_args ctx)
  else if L.is_array_get lid || L.is_atomic_make lid then walk_args ctx
  else (
    (let cline, ccol = L.pos_of e.pexp_loc in
     let lam_spans =
       List.filter_map
         (fun (_, a) ->
           if is_lambda a then Some (line_span a.pexp_loc) else None)
         args
     in
     emit ctx
       (Call
          {
            clid = lid;
            cline;
            ccol;
            cg = ctx.g;
            cc = ctx.cas;
            cp = ctx.pb;
            lam_spans;
            callee = None;
          }));
    walk_args ctx)

and walk_let env ctx vbs body =
  let fns, vals =
    List.partition
      (fun vb -> is_lambda vb.pvb_expr && var_name vb.pvb_pat <> None)
      vbs
  in
  (* register every sibling name before walking any body: mutual
     recursion resolves, and a nested fn shadows outer bindings *)
  let children =
    List.map
      (fun vb ->
        let name = Option.get (var_name vb.pvb_pat) in
        let key = ctx.f.key ^ "." ^ name in
        let child =
          make_fn env ~key ~file:ctx.fc.file ~ns:ctx.f.ns
            ~parent:(Some ctx.f.key) ~span:(line_span vb.pvb_loc)
            ~top_level:false
        in
        Hashtbl.replace ctx.f.locals name key;
        (vb, child))
      fns
  in
  List.iter
    (fun (vb, child) ->
      let cctx = enter_attrs { ctx with f = child } vb.pvb_attributes in
      walk_fn_body env cctx vb.pvb_expr)
    children;
  let ctx =
    List.fold_left
      (fun ctx vb ->
        let vctx = enter_attrs ctx vb.pvb_attributes in
        walk env vctx vb.pvb_expr;
        match (var_name vb.pvb_pat, syntactic_cell ctx vb.pvb_expr) with
        | Some x, Some cell -> { ctx with al = (x, cell) :: ctx.al }
        | _ -> ctx)
      ctx vals
  in
  walk env ctx body

and walk_fn_body env ctx e =
  let ctx = enter_attrs ctx e.pexp_attributes in
  match e.pexp_desc with
  | Pexp_fun (_, dflt, pat, body) ->
      Option.iter (walk env ctx) dflt;
      List.iter (fun x -> Hashtbl.replace ctx.f.params x ()) (pat_vars pat);
      walk_fn_body env ctx body
  | Pexp_newtype (_, body) -> walk_fn_body env ctx body
  | Pexp_function cases ->
      List.iter
        (fun c ->
          Option.iter (walk env ctx) c.pc_guard;
          walk env ctx c.pc_rhs)
        cases
  | _ -> walk env ctx e

(* ------------------------------------------------------------------ *)
(* Module structure walking                                            *)
(* ------------------------------------------------------------------ *)

let init_fn env fc ns =
  let key = ns ^ ".(init)" in
  match Hashtbl.find_opt env.fns key with
  | Some fn -> fn
  | None ->
      (* module-initialisation code: runs at functor application, so it
         is always an entry; the (0, -1) span contains no line *)
      make_fn env ~key ~file:fc.file ~ns ~parent:None ~span:(0, -1)
        ~top_level:true

let base_ctx fc fn =
  { fc; f = fn; g = no_cover; cas = no_cover; pb = no_cover; al = [] }

let register_ns env ns =
  if not (Hashtbl.mem env.ns_top ns) then Hashtbl.replace env.ns_top ns (ref [])

let record_modtype env ~full ~name vals =
  Hashtbl.replace env.modtypes_full full vals;
  (match Hashtbl.find_opt env.modtypes_name name with
  | None -> Hashtbl.replace env.modtypes_name name (Some vals)
  | Some (Some prior) when String_set.equal prior vals -> ()
  | Some _ -> Hashtbl.replace env.modtypes_name name None)

let sig_val_names (mt : module_type) =
  match mt.pmty_desc with
  | Pmty_signature items ->
      Some
        (List.filter_map
           (fun si ->
             match si.psig_desc with
             | Psig_value vd -> Some vd.pval_name.txt
             | _ -> None)
           items
        |> String_set.of_list)
  | _ -> None

let rec walk_structure env fc ns str =
  register_ns env ns;
  List.iter (walk_item env fc ns) str

and walk_item env fc ns si =
  match si.pstr_desc with
  | Pstr_value (_, vbs) -> walk_top_bindings env fc ns vbs
  | Pstr_module mb -> walk_module_binding env fc ns mb
  | Pstr_recmodule mbs -> List.iter (walk_module_binding env fc ns) mbs
  | Pstr_modtype mtd -> (
      match mtd.pmtd_type with
      | Some mt -> (
          match sig_val_names mt with
          | Some vals ->
              record_modtype env
                ~full:(fc.stem ^ "." ^ mtd.pmtd_name.txt)
                ~name:mtd.pmtd_name.txt vals
          | None -> ())
      | None -> ())
  | Pstr_eval (e, _) -> walk env (base_ctx fc (init_fn env fc ns)) e
  | _ -> ()

and walk_module_binding env fc ns mb =
  match mb.pmb_name.txt with
  | None -> ()
  | Some name -> walk_module_expr env fc ns name mb.pmb_expr

and walk_module_expr env fc ns name me =
  match me.pmod_desc with
  | Pmod_structure str ->
      let child = ns ^ ":" ^ name in
      Hashtbl.replace env.subs (ns ^ "." ^ name) child;
      walk_structure env fc child str
  | Pmod_functor (_, body) -> walk_module_expr env fc ns name body
  | Pmod_constraint (inner, mt) ->
      (match mt.pmty_desc with
      | Pmty_ident { txt; _ } ->
          env.constraints <- (ns ^ ":" ^ name, txt) :: env.constraints
      | _ -> ());
      walk_module_expr env fc ns name inner
  | Pmod_ident { txt; _ } ->
      Hashtbl.replace env.raw_aliases (ns ^ "." ^ name) (ns, txt)
  | Pmod_apply _ -> (
      let rec head m =
        match m.pmod_desc with
        | Pmod_apply (f, _) -> head f
        | Pmod_ident { txt; _ } -> Some txt
        | _ -> None
      in
      match head me with
      | Some lid -> Hashtbl.replace env.raw_aliases (ns ^ "." ^ name) (ns, lid)
      | None -> ())
  | _ -> ()

and walk_top_bindings env fc ns vbs =
  let fns, vals =
    List.partition
      (fun vb -> is_lambda vb.pvb_expr && var_name vb.pvb_pat <> None)
      vbs
  in
  let children =
    List.map
      (fun vb ->
        let name = Option.get (var_name vb.pvb_pat) in
        let key = ns ^ "." ^ name in
        let child =
          make_fn env ~key ~file:fc.file ~ns ~parent:None
            ~span:(line_span vb.pvb_loc) ~top_level:true
        in
        Hashtbl.replace env.members (ns ^ "." ^ name) key;
        let l = Hashtbl.find env.ns_top ns in
        l := (name, key) :: !l;
        (vb, child))
      fns
  in
  List.iter
    (fun (vb, child) ->
      let cctx = enter_attrs (base_ctx fc child) vb.pvb_attributes in
      walk_fn_body env cctx vb.pvb_expr)
    children;
  List.iter
    (fun vb ->
      let ctx =
        enter_attrs (base_ctx fc (init_fn env fc ns)) vb.pvb_attributes
      in
      walk env ctx vb.pvb_expr)
    vals

(* ------------------------------------------------------------------ *)
(* Name resolution                                                     *)
(* ------------------------------------------------------------------ *)

let rec ns_chain ns =
  match String.rindex_opt ns ':' with
  | Some i -> ns :: ns_chain (String.sub ns 0 i)
  | None -> [ ns ]

(* Resolve a module path [comps] seen from namespace [from_ns] to a
   namespace. [skip] breaks the self-reference of
   [module Ebr = Ebr.Make (P)] (the rhs [Ebr] must resolve past the
   alias being defined). *)
let rec resolve_mod env depth skip from_ns comps =
  if depth > 20 then None
  else
    match comps with
    | [] -> Some from_ns
    | c :: rest -> (
        let rec search = function
          | [] -> Hashtbl.find_opt env.stems c
          | n :: chain_rest -> (
              let k = n ^ "." ^ c in
              match Hashtbl.find_opt env.subs k with
              | Some child -> Some child
              | None -> (
                  match Hashtbl.find_opt env.raw_aliases k with
                  | Some (def_ns, lid) when k <> skip ->
                      resolve_mod env (depth + 1) k def_ns
                        (L.flatten_longident lid)
                  | _ -> search chain_rest))
        in
        match search (ns_chain from_ns) with
        | Some ns' -> resolve_mod env depth skip ns' rest
        | None -> None)

let resolve_call env f lid =
  match L.flatten_longident lid with
  | [] -> None
  | [ g ] -> (
      let rec local_chain = function
        | None -> None
        | Some (fn : fn) -> (
            match Hashtbl.find_opt fn.locals g with
            | Some k -> Some k
            | None ->
                local_chain (Option.bind fn.parent (Hashtbl.find_opt env.fns)))
      in
      match local_chain (Some f) with
      | Some k -> Some k
      | None ->
          List.find_map
            (fun n -> Hashtbl.find_opt env.members (n ^ "." ^ g))
            (ns_chain f.ns))
  | comps -> (
      let n = List.length comps in
      let prefix = List.filteri (fun i _ -> i < n - 1) comps in
      let g = List.nth comps (n - 1) in
      match resolve_mod env 0 "" f.ns prefix with
      | Some ns' -> Hashtbl.find_opt env.members (ns' ^ "." ^ g)
      | None -> None)

let lookup_modtype env ns lid =
  let comps = L.flatten_longident lid in
  let n = List.length comps in
  if n = 0 then None
  else
    let last = List.nth comps (n - 1) in
    let stem = List.hd (ns_chain ns |> List.rev) in
    match Hashtbl.find_opt env.modtypes_full (stem ^ "." ^ last) with
    | Some vals -> Some vals
    | None -> (
        let by_stem2 =
          if n >= 2 then
            let stem2 = String.uncapitalize_ascii (List.nth comps (n - 2)) in
            Hashtbl.find_opt env.modtypes_full (stem2 ^ "." ^ last)
          else None
        in
        match by_stem2 with
        | Some vals -> Some vals
        | None -> (
            match Hashtbl.find_opt env.modtypes_name last with
            | Some (Some vals) -> Some vals
            | _ -> None))

let apply_constraints env =
  List.iter
    (fun (ns, lid) ->
      match lookup_modtype env ns lid with
      | Some vals -> (
          match Hashtbl.find_opt env.ns_top ns with
          | Some l ->
              List.iter
                (fun (name, key) ->
                  match Hashtbl.find_opt env.fns key with
                  | Some fn -> fn.exported <- String_set.mem name vals
                  | None -> ())
                !l
          | None -> ())
      | None -> ())
    env.constraints

(* ------------------------------------------------------------------ *)
(* Fixpoints                                                           *)
(* ------------------------------------------------------------------ *)

let own_effects fn =
  List.fold_left
    (fun e ev ->
      match ev with
      | Read c -> { e with reads = String_set.add c e.reads }
      | Write { wcell; _ } -> { e with writes = String_set.add wcell e.writes }
      | Rmw { rcell; _ } ->
          { e with rmws = String_set.add rcell e.rmws; has_rmw = true }
      | Pace -> { e with paces = true }
      | Guard_enter -> { e with guards = true }
      | Retire _ -> { e with retires = true }
      | Call _ -> e)
    no_effects (events_of fn)

let total env key =
  match Hashtbl.find_opt env.totals key with Some e -> e | None -> no_effects

let effect_fixpoint env =
  let keys = List.rev env.order in
  let own = Hashtbl.create 128 in
  List.iter
    (fun key ->
      let e = own_effects (Hashtbl.find env.fns key) in
      Hashtbl.replace own key e;
      Hashtbl.replace env.totals key e)
    keys;
  let changed = ref true in
  while !changed do
    changed := false;
    env.eff_rounds <- env.eff_rounds + 1;
    List.iter
      (fun key ->
        let fn = Hashtbl.find env.fns key in
        let t =
          List.fold_left
            (fun acc ev ->
              match ev with
              | Call { callee = Some g; _ } -> union_effects acc (total env g)
              | _ -> acc)
            (Hashtbl.find own key) fn.events
        in
        if not (eq_effects t (total env key)) then (
          Hashtbl.replace env.totals key t;
          changed := true))
      keys
  done

let compute_entries env =
  env.entry_set <-
    Hashtbl.fold
      (fun key fn acc ->
        if fn.top_level && fn.exported then String_set.add key acc else acc)
      env.fns String_set.empty

let compute_guard_spans env =
  Hashtbl.iter
    (fun _ (fn : fn) ->
      List.iter
        (function
          | Call { callee = Some w; lam_spans; _ }
            when (match Hashtbl.find_opt env.fns w with
                 | Some wf -> wf.wrapper
                 | None -> false) ->
              let l =
                match Hashtbl.find_opt env.guard_spans fn.file with
                | Some l -> l
                | None ->
                    let l = ref [] in
                    Hashtbl.replace env.guard_spans fn.file l;
                    l
              in
              l := lam_spans @ !l
          | _ -> ())
        fn.events)
    env.fns

let in_guard_span env file line =
  match Hashtbl.find_opt env.guard_spans file with
  | Some l -> List.exists (fun (a, b) -> a <= line && line <= b) !l
  | None -> false

let collect_calls env =
  Hashtbl.iter
    (fun _ fn ->
      List.iter
        (function
          | Call ({ callee = Some g; _ } as c) -> Hashtbl.add env.calls g (fn, c)
          | _ -> ())
        fn.events)
    env.fns

(* Greatest fixpoint: a non-entry function with at least one resolved
   call site starts covered; a site left uncovered (lexically, by the
   guard-wrapper spans, or by its caller's own context) withdraws it. *)
let ctx_fixpoint env site_ok =
  let tbl = Hashtbl.create 128 in
  let keys = List.rev env.order in
  List.iter
    (fun key ->
      Hashtbl.replace tbl key
        ((not (String_set.mem key env.entry_set)) && Hashtbl.mem env.calls key))
    keys;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun key ->
        if Hashtbl.find tbl key then
          let ok =
            List.for_all
              (fun ((encl : fn), c) ->
                site_ok encl c
                || Hashtbl.find_opt tbl encl.key = Some true)
              (Hashtbl.find_all env.calls key)
          in
          if not ok then (
            Hashtbl.replace tbl key false;
            changed := true))
      keys
  done;
  tbl

let guard_ctx ?without env =
  ctx_fixpoint env (fun encl c ->
      covered ?without encl.file c.cg || in_guard_span env encl.file c.cline)

let compute_writers env =
  String_set.iter
    (fun ek ->
      let t = total env ek in
      String_set.iter
        (fun cell ->
          let prior =
            match Hashtbl.find_opt env.writers_tbl cell with
            | Some s -> s
            | None -> String_set.empty
          in
          Hashtbl.replace env.writers_tbl cell (String_set.add ek prior))
        (String_set.union t.writes t.rmws))
    env.entry_set

(* ------------------------------------------------------------------ *)
(* Analysis driver                                                     *)
(* ------------------------------------------------------------------ *)

let analyze ?scope sources =
  let env = new_env () in
  List.iter
    (fun (file, _) ->
      let stem = stem_of file in
      Hashtbl.replace env.stems (String.capitalize_ascii stem) stem)
    sources;
  List.iter
    (fun (file, str) ->
      let sc =
        match scope with Some s -> s | None -> L.scope_of_path file
      in
      Hashtbl.replace env.file_scope file sc;
      env.file_order <- file :: env.file_order;
      let fc =
        {
          file;
          stem = stem_of file;
          retire_rule = sc.L.check_discipline && L.structure_uses_ebr str;
        }
      in
      walk_structure env fc fc.stem str)
    sources;
  Hashtbl.iter
    (fun _ fn ->
      List.iter
        (function
          | Call c -> c.callee <- resolve_call env fn c.clid
          | _ -> ())
        fn.events)
    env.fns;
  apply_constraints env;
  compute_entries env;
  effect_fixpoint env;
  compute_guard_spans env;
  collect_calls env;
  env.cg_tbl <- guard_ctx env;
  compute_writers env;
  env

(* ------------------------------------------------------------------ *)
(* Diagnostics and lint integration                                    *)
(* ------------------------------------------------------------------ *)

let tbl_true tbl key = Hashtbl.find_opt tbl key = Some true

(* The functions of [file], and the innermost one containing a line. *)
let file_fns env file =
  List.rev env.order
  |> List.filter_map (fun k ->
         let fn : fn = Hashtbl.find env.fns k in
         if fn.file = file then Some fn else None)

let innermost fns line =
  List.fold_left
    (fun best (fn : fn) ->
      let l1, l2 = fn.span in
      if l1 <= line && line <= l2 then
        match best with
        | Some (b : fn) when snd b.span - fst b.span <= l2 - l1 -> best
        | _ -> Some fn
      else best)
    None fns

let guarded_at ?without env =
  let tbl =
    match without with None -> env.cg_tbl | Some _ -> guard_ctx ?without env
  in
  fun ~file ->
    let fns = file_fns env file in
    fun (line, _col) ->
      (match innermost fns line with
      | Some fn -> tbl_true tbl fn.key
      | None -> false)
      || in_guard_span env file line

let cell_writers env cell =
  match Hashtbl.find_opt env.writers_tbl cell with
  | Some s -> s
  | None -> String_set.empty

let publication_diagnostics ?without env =
  let diags = ref [] in
  let seen = Hashtbl.create 16 in
  let fire (fn : fn) cell line col via =
    let ws = cell_writers env cell in
    if String_set.cardinal ws >= 2 && not (Hashtbl.mem seen (fn.file, line, cell))
    then (
      Hashtbl.replace seen (fn.file, line, cell) ();
      let head =
        match via with
        | None -> "plain store to"
        | Some g -> Printf.sprintf "call resolving to '%s' plain-stores" g
      in
      let msg =
        Printf.sprintf
          "%s atomic cell '%s' completes a read-modify-plain-write chain \
           (no ordering RMW since '%s' began) on a cell written from %d \
           entry points (%s): a concurrent write between the read and this \
           store is lost -- the dynamic detector's write-write-race model; \
           make the update a compare_and_set/exchange or annotate \
           [@publication_ok \"why the lost update is benign\"]"
          head cell fn.key (String_set.cardinal ws)
          (String.concat ", " (String_set.elements ws))
      in
      diags :=
        { L.file = fn.file; line; col; rule = "plain-publication";
          message = msg }
        :: !diags)
  in
  List.iter
    (fun key ->
      let fn = Hashtbl.find env.fns key in
      let sc = Hashtbl.find_opt env.file_scope fn.file in
      if (match sc with Some s -> s.L.check_discipline | None -> false) then (
        let reads = ref String_set.empty in
        let rmw = ref false in
        List.iter
          (fun ev ->
            match ev with
            | Read c -> reads := String_set.add c !reads
            | Rmw _ -> rmw := true
            | Write { wcell; wline; wcol; supp } ->
                if
                  (not (covered ?without fn.file supp))
                  && (not !rmw) && String_set.mem wcell !reads
                then fire fn wcell wline wcol None
            | Call ({ callee = Some g; _ } as c) ->
                let tg = total env g in
                (if
                   (not (covered ?without fn.file c.cp))
                   && (not !rmw) && not tg.has_rmw
                 then
                   match
                     String_set.choose_opt (String_set.inter tg.writes !reads)
                   with
                   | Some cell -> fire fn cell c.cline c.ccol (Some g)
                   | None -> ());
                reads := String_set.union !reads tg.reads;
                if tg.has_rmw then rmw := true
            | _ -> ())
          (events_of fn)))
    (List.rev env.order);
  List.rev !diags

(* Rule 5: a retire site fires unless it is covered lexically or its
   own function is CAS-gated at every call site. *)
let site_diagnostics ?without env =
  let gated = ctx_fixpoint env (fun encl c -> covered ?without encl.file c.cc) in
  let diag (fn : fn) s ctx rule message =
    if
      s.checked
      && (not (covered ?without fn.file s.scov))
      && not (tbl_true ctx fn.key)
    then
      Some
        { L.file = fn.file; line = fst s.spos; col = snd s.spos; rule; message }
    else None
  in
  List.concat_map
    (fun key ->
      let fn = Hashtbl.find env.fns key in
      List.filter_map
        (function
          | Retire s ->
              diag fn s gated "retire-once"
                "retire call not gated by an unlink compare_and_set: whoever \
                 loses the unlink race must not also retire the node \
                 (double-free); gate the call on the winning CAS, or annotate \
                 it [@retire_ok \"why the node is unlinked exactly once\"]"
          | _ -> None)
        (events_of fn))
    (List.rev env.order)

let diagnostics ?without env =
  List.stable_sort
    (fun (a : L.diagnostic) b ->
      compare (a.file, a.line, a.col, a.rule) (b.file, b.line, b.col, b.rule))
    (site_diagnostics ?without env @ publication_diagnostics ?without env)

let may_write_sites env =
  let acc = ref [] in
  Hashtbl.iter
    (fun _ (fn : fn) ->
      List.iter
        (function
          | Write { wline; _ } -> acc := (fn.file, wline) :: !acc
          | Rmw { rline; _ } -> acc := (fn.file, rline) :: !acc
          | _ -> ())
        fn.events)
    env.fns;
  List.sort_uniq compare !acc

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let entries env = env.entry_set
let functions env = List.rev env.order

(* Top-level functions of [file] with their binding line spans, in
   definition order — the typestate analysis' unit list. *)
let file_functions env ~file =
  List.rev env.order
  |> List.filter_map (fun k ->
         let fn : fn = Hashtbl.find env.fns k in
         if fn.file = file && fn.top_level then Some (k, fn.span) else None)

(* Every resolved call site in [file]: the (line, col) of the whole
   application expression, mapped to the callee's key, defining file and
   binding span. The typestate CFG records call ops at the same
   position, so the pair is a join key. *)
let resolved_calls env ~file =
  let acc = ref [] in
  Hashtbl.iter
    (fun _ (fn : fn) ->
      if fn.file = file then
        List.iter
          (function
            | Call { cline; ccol; callee = Some key; _ } -> (
                match Hashtbl.find_opt env.fns key with
                | Some callee ->
                    acc :=
                      ((cline, ccol), (key, callee.file, callee.span)) :: !acc
                | None -> ())
            | _ -> ())
          fn.events)
    env.fns;
  List.sort compare !acc
let total_effects env key = total env key
let effect_rounds env = env.eff_rounds
let ctx_guarded env key = tbl_true env.cg_tbl key
