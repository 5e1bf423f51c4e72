(* Each counter is a one-field all-float record, which OCaml stores
   flat: bumping it writes the float in place. The lookup uses
   [Hashtbl.find] and falls back on [Not_found], so a hit allocates no
   option. *)
type cell = { mutable v : float }

type t = (string, cell) Hashtbl.t

let create () : t = Hashtbl.create 32

let cell t name =
  match Hashtbl.find t name with
  | c -> c
  | exception Not_found ->
      let c = { v = 0.0 } in
      Hashtbl.add t name c;
      c

let addf t name x =
  let c = cell t name in
  c.v <- c.v +. x

let add t name v = addf t name (float_of_int v)

let incr t name = addf t name 1.0

let get t name =
  match Hashtbl.find t name with c -> c.v | exception Not_found -> 0.0

let reset t = Hashtbl.reset t

let to_list t =
  Hashtbl.fold (fun k c acc -> (k, c.v) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
