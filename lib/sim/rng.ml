(* The state is an 8-byte buffer, not a [mutable int64] field: storing
   an int64 in a field boxes it, so every draw would allocate, while the
   buffer's get/set keep it unboxed. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] state t = Bytes.get_int64_le t 0

let create ~seed =
  let t = Bytes.create 8 in
  (* xenic-lint: allow BYTES-MUTATION — the generator's own state buffer *)
  Bytes.set_int64_le t 0 seed;
  t

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] step t =
  let s = Int64.add (state t) golden_gamma in
  (* xenic-lint: allow BYTES-MUTATION — the generator's own state buffer *)
  Bytes.set_int64_le t 0 s;
  mix s

let split t = create ~seed:(step t)

(* Child stream keyed by [index], without advancing the parent: the
   parent's position is xor-folded with the index-th gamma step and
   remixed, so distinct indices give decorrelated streams and the same
   (parent, index) pair always gives the same stream. Partitioned
   engines use this to give partition [i] the stream seed xor f(i) —
   every partition's draws are independent of how many partitions (or
   domains) exist, and of any interleaving. *)
let derive t ~index =
  if index < 0 then invalid_arg "Rng.derive: index must be non-negative";
  create
    ~seed:
      (mix
         (Int64.logxor (state t)
            (Int64.mul (Int64.of_int (index + 1)) golden_gamma)))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let r = Int64.to_int (step t) land max_int in
  r mod bound

let float t =
  let bits53 = Int64.to_int (Int64.shift_right_logical (step t) 11) in
  float_of_int bits53 *. (1.0 /. 9007199254740992.0)

let bool t = Int64.logand (step t) 1L = 1L

let range t lo hi =
  if lo > hi then invalid_arg "Rng.range: lo > hi";
  lo + int t (hi - lo + 1)

let exponential t ~mean =
  let u = ref (float t) in
  if Float.equal !u 0.0 then u := 1e-12;
  -.mean *. log !u
