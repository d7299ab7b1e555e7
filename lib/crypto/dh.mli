(** Diffie-Hellman key agreement over the 61-bit safe-prime group p = 0x1ffffffffffff6bb, g = 2.

    SIMULATION-GRADE ONLY: the modulus fits in an OCaml int so the
    exchange runs without a bignum library; it exercises the real protocol
    flow (group negotiation, exponentiation, shared-secret derivation) but
    offers no security. The production substitution would be an RFC 3526
    group over a bignum — documented in DESIGN.md. *)

(** The group modulus. *)
val p : int

type keypair = { secret : int; public : int }

(** Derive a keypair from PRNG output. *)
val generate : Engine.Prng.t -> keypair

(** [shared ~secret ~peer_public] — both sides derive the same value. *)
val shared : secret:int -> peer_public:int -> int

(** Key-derivation: shared secret + transcript -> 32-byte key material. *)
val derive_key : shared:int -> transcript:string -> label:string -> string
