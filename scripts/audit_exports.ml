(* Every value a library interface exports must have a caller outside its
   own module.

     audit_exports ALLOW LIB TEST CALLER...

   reads the .cmti/.cmt files dune builds under each directory (searched
   recursively; a directory given as another argument is left to that
   argument) and resolves every identifier in every .cmt to the library
   module that defines it, through [open], module aliases and
   wrapped-library paths alike. Each top-level [val] of a .cmti under LIB
   is then

   - used:      called from another LIB module or from a CALLER tree;
   - test-only: called only from TEST;
   - internal:  used only inside its own .ml;
   - dead:      never referenced.

   It fails (exit 1) on a dead or internal export, on a test-only export
   that ALLOW does not list, on an ALLOW line that gives no reason or names
   a value that is not a test-only export, and on any directory that
   yields no .cmt file or no reference into LIB, so that a stale build
   path cannot make the audit pass. ALLOW holds one [Module.value reason]
   per line; blank lines and lines starting with '#' are skipped. *)

open Typedtree

type use = Own | Lib | Caller | Test

type export = {
  value : string;  (** [Module.name], as ALLOW spells it *)
  where : string;  (** [file.mli:line] *)
  mutable uses : (use * string) list;  (** each kind of use, with one source *)
}

let failed = ref false

let error fmt =
  failed := true;
  Printf.printf ("audit_exports: " ^^ fmt ^^ "\n")

(* The files ending in [suffix] under [root], leaving out the [other] roots. *)
let rec files ~suffix ~other root =
  if not (Sys.file_exists root && Sys.is_directory root) then []
  else
    Sys.readdir root |> Array.to_list |> List.sort compare
    |> List.concat_map (fun name ->
           let path = Filename.concat root name in
           if Sys.is_directory path then
             if List.mem path other then [] else files ~suffix ~other path
           else if Filename.check_suffix name suffix then [ path ]
           else [])

(* "Odex_extmem__Storage" -> "Storage" *)
let short modname =
  let rec go i =
    if i + 1 >= String.length modname then modname
    else if modname.[i] = '_' && modname.[i + 1] = '_' then
      String.sub modname (i + 2) (String.length modname - i - 2)
    else go (i + 1)
  in
  go 0

(* Call [f p current] on every value path [p] in [str], where [current]
   holds the identifiers of the top-level binding being visited, so that a
   value's use of itself does not count. Module aliases ([module B =
   Odex_crypto.Bigbuf], [let module]) are replaced by what they name. *)
let iter_paths str f =
  let open Tast_iterator in
  let aliases = Ident.Tbl.create 16 in
  let alias id (me : module_expr) =
    match me.mod_desc with Tmod_ident (p, _) -> Ident.Tbl.replace aliases id p | _ -> ()
  in
  let collect =
    {
      default_iterator with
      module_binding =
        (fun sub mb ->
          Option.iter (fun id -> alias id mb.mb_expr) mb.mb_id;
          default_iterator.module_binding sub mb);
      expr =
        (fun sub e ->
          (match e.exp_desc with Texp_letmodule (Some id, _, _, me, _) -> alias id me | _ -> ());
          default_iterator.expr sub e);
    }
  in
  collect.structure collect str;
  let rec resolve (p : Path.t) : Path.t =
    match p with
    | Pident id -> Option.fold ~none:p ~some:resolve (Ident.Tbl.find_opt aliases id)
    | Pdot (q, s) -> Pdot (resolve q, s)
    | _ -> p
  in
  let current = ref [] in
  let visit =
    {
      default_iterator with
      expr =
        (fun sub e ->
          (match e.exp_desc with Texp_ident (p, _, _) -> f (resolve p) !current | _ -> ());
          default_iterator.expr sub e);
    }
  in
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              current := pat_bound_idents vb.vb_pat;
              visit.value_binding visit vb)
            vbs;
          current := []
      | _ -> visit.structure_item visit item)
    str.str_items

(* The top-level value identifiers of a structure, by name; the last
   binding of a name is the one its interface exports. *)
let top_level str =
  let tbl = Hashtbl.create 64 in
  let add id = Hashtbl.replace tbl (Ident.name id) id in
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) -> List.iter (fun vb -> List.iter add (pat_bound_idents vb.vb_pat)) vbs
      | Tstr_primitive vd -> add vd.val_id
      | _ -> ())
    str.str_items;
  tbl

let () =
  let allow, lib, test, callers =
    match List.tl (Array.to_list Sys.argv) with
    | allow :: lib :: test :: (_ :: _ as callers) -> (allow, lib, test, callers)
    | _ ->
        prerr_endline "usage: audit_exports ALLOW LIB TEST CALLER...";
        exit 2
  in
  let roots = (lib, Lib) :: (test, Test) :: List.map (fun c -> (c, Caller)) callers in
  let files suffix root =
    files ~suffix ~other:(List.filter (( <> ) root) (List.map fst roots)) root
  in
  (* Exports, keyed by (compilation unit, value name). *)
  let exports = Hashtbl.create 512 and units = Hashtbl.create 64 in
  List.iter
    (fun path ->
      let cmt = Cmt_format.read_cmt path in
      match cmt.cmt_annots with
      | Interface sg ->
          Hashtbl.replace units cmt.cmt_modname ();
          List.iter
            (fun item ->
              match item.sig_desc with
              | Tsig_value vd ->
                  let pos = vd.val_loc.loc_start in
                  Hashtbl.replace exports (cmt.cmt_modname, vd.val_name.txt)
                    {
                      value = short cmt.cmt_modname ^ "." ^ vd.val_name.txt;
                      where = Printf.sprintf "%s:%d" pos.pos_fname pos.pos_lnum;
                      uses = [];
                    }
              | _ -> ())
            sg.sig_items
      | _ -> ())
    (files ".cmti" lib);
  (* [Odex__Sort.v] and [Odex.Sort.v] both name value [v] of unit Odex__Sort. *)
  let rec names (p : Path.t) =
    match p with
    | Pident id when Ident.global id -> Some [ Ident.name id ]
    | Pdot (q, s) -> Option.map (fun l -> l @ [ s ]) (names q)
    | _ -> None
  in
  let lib_value p =
    match names p with
    | Some [ m; v ] when Hashtbl.mem units m -> Some (m, v)
    | Some [ w; m; v ] when Hashtbl.mem units (w ^ "__" ^ m) -> Some (w ^ "__" ^ m, v)
    | _ -> None
  in
  let note key use source =
    match Hashtbl.find_opt exports key with
    | Some e when not (List.mem_assoc use e.uses) -> e.uses <- (use, source) :: e.uses
    | _ -> ()
  in
  List.iter
    (fun (root, kind) ->
      let cmts = files ".cmt" root in
      let refs = ref 0 in
      List.iter
        (fun path ->
          let cmt = Cmt_format.read_cmt path in
          let unit = cmt.cmt_modname in
          let source = Option.value cmt.cmt_sourcefile ~default:path in
          match cmt.cmt_annots with
          | Implementation str ->
              let own = if Hashtbl.mem units unit then top_level str else Hashtbl.create 0 in
              iter_paths str (fun p current ->
                  match (lib_value p, p) with
                  | Some key, _ ->
                      incr refs;
                      note key kind source
                  | None, Pident id -> (
                      match Hashtbl.find_opt own (Ident.name id) with
                      | Some top
                        when Ident.same id top && not (List.exists (Ident.same id) current) ->
                          incr refs;
                          note (unit, Ident.name id) Own source
                      | _ -> ())
                  | None, _ -> ())
          | _ -> ())
        cmts;
      if cmts = [] then error "%s: no .cmt files" root
      else if !refs = 0 then error "%s: no reference to a value of %s" root lib)
    roots;
  let classify e =
    match
      ( List.find_opt (fun (u, _) -> u = Lib || u = Caller) e.uses,
        List.assoc_opt Test e.uses,
        List.mem_assoc Own e.uses )
    with
    | Some (_, source), _, _ -> `Used source
    | None, Some source, _ -> `Test_only source
    | None, None, true -> `Internal
    | None, None, false -> `Dead
  in
  let listed =
    In_channel.with_open_text allow In_channel.input_all
    |> String.split_on_char '\n'
    |> List.mapi (fun i line -> (i + 1, String.trim line))
    |> List.filter (fun (_, line) -> line <> "" && line.[0] <> '#')
    |> List.map (fun (n, line) ->
           match String.index_opt line ' ' with
           | Some j ->
               (n, String.sub line 0 j, String.trim (String.sub line j (String.length line - j)))
           | None -> (n, line, ""))
  in
  let classes =
    Hashtbl.to_seq_values exports |> List.of_seq
    |> List.sort (fun a b -> compare a.value b.value)
    |> List.map (fun e -> (e, classify e))
  in
  List.iter
    (fun (e, c) ->
      match c with
      | `Used _ -> ()
      | `Test_only source ->
          if not (List.exists (fun (_, v, _) -> v = e.value) listed) then
            error "%s: %s is called only from tests (%s) and %s does not list it" e.where e.value
              source allow
      | `Internal ->
          error "%s: %s is used only inside its own module; drop it from the .mli" e.where e.value
      | `Dead -> error "%s: %s is dead: nothing calls it" e.where e.value)
    classes;
  List.iter
    (fun (n, value, reason) ->
      if reason = "" then error "%s:%d: %s gives no reason" allow n value;
      match List.find_opt (fun (e, _) -> e.value = value) classes with
      | None -> error "%s:%d: %s names no export" allow n value
      | Some (_, `Test_only _) -> ()
      | Some (_, `Used source) ->
          error "%s:%d: %s is not test-only (called from %s); drop the line" allow n value source
      | Some (_, (`Internal | `Dead)) ->
          error "%s:%d: %s has no test caller; drop the line" allow n value)
    listed;
  let count p = List.length (List.filter (fun (_, c) -> p c) classes) in
  Printf.printf "audit_exports: %d exports: %d used, %d test-only, %d internal, %d dead\n"
    (List.length classes)
    (count (function `Used _ -> true | _ -> false))
    (count (function `Test_only _ -> true | _ -> false))
    (count (( = ) `Internal))
    (count (( = ) `Dead));
  if !failed then exit 1
