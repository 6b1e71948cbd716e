(** The orders lib sorts and selects under, as data.

    Every order sorts [Cell.Empty] after every item (the paper treats
    empty cells as +∞ when sorting, §4) and ties two empties. Between
    items:
    - [Keys]: [(key, tag)] ascending — tags are original positions,
      giving the distinctness the paper's §1 caveat asks for. This is
      {!Cell.compare_keys}, and the default everywhere.
    - [By_tag]: [(tag, key)] ascending — restores an original order.
    - [By_aux]: [(aux, key, tag)] ascending — sorts on a scratch label
      (a bucket, a color).
    - [Dedup]: [key] ascending, then [tag] descending — the hierarchical
      ORAM's rebuild order, newest timestamp first within an address.

    Each order has two faces that agree in sign on every pair:
    {!compare_items} on decoded items, for the scans that hold
    {!Cell.item} values, and {!compare_images} on encoded images in
    place, for the kernels that never decode (every sorter). *)

type t = Keys | By_tag | By_aux | Dedup

val compare_items : t -> Cell.item -> Cell.item -> int
(** The order on decoded items: negative, zero or positive. A total
    preorder (ties allowed). *)

val compare_images : t -> Odex_crypto.Bigbuf.t -> int -> Odex_crypto.Bigbuf.t -> int -> int
(** [compare_images o b1 off1 b2 off2] compares the cell images at byte
    offsets [off1] of [b1] and [off2] of [b2] without decoding them; its
    sign is that of [o] on the decoded cells. Allocates nothing.
    Bounds are the caller's, as in {!Cell.encode_big}. *)

val sort_images : t -> Odex_crypto.Bigbuf.t -> int array -> unit
(** [sort_images o buf offs] sorts [offs], byte offsets of cell images
    in [buf], into non-decreasing [o] order of the images. It is stdlib
    [Array.sort]'s heap sort with {!compare_images} as the comparison:
    it makes the same comparisons, so it yields exactly the permutation
    [Array.sort] under [o] yields on the decoded cells, ties
    included. Not stable. *)
