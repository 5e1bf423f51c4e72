module Key = struct
  type t = int

  let hash k =
    let z = Int64.of_int k in
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    let z = Int64.(logxor z (shift_right_logical z 31)) in
    Int64.to_int z land max_int

  let equal = Int.equal
end

module Key_tbl = Hashtbl.Make (Key)

let inline_max = 256

let slot_header_b = 24

let slot_bytes ~value_b =
  slot_header_b + if value_b > inline_max then 8 else value_b
