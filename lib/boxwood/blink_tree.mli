(** Boxwood's B-link tree (paper §7.2.3–7.2.5, Fig. 9; algorithm after
    Sagiv [12]).

    A concurrent ordered map from integer keys to integer values.  All
    operations use lock coupling and recover from concurrent splits by
    moving right along sibling links; inserts split full nodes bottom-up,
    with separator insertion into ancestors as post-commit restructuring
    that never changes the abstract contents (the W(p) W(q) pattern of §8
    that defeats reduction-based atomicity checkers).  A compression thread
    concurrently merges underfull leaves into their right siblings and
    unlinks dead entries from parents — internal executions whose
    specification transition is the identity (§7.2.3).

    Commit points follow Fig. 9: each mutator execution performs exactly one
    committed node write — the overwrite of an existing pair (commit point
    1), the in-place leaf insert (2), the halved-leaf write of a split
    (3/4 — root splits included), or the pair-removing leaf write of a
    delete.

    The injectable bug is Table 1's "allowing duplicated data nodes": the
    insert path skips the key-presence check, so re-inserting an existing
    key creates a second data entry; view refinement reports it at that very
    commit. *)

type bug = Duplicate_data_nodes

type t

(** [create ?bugs ?order store ctx] builds an empty tree.  [order] is the
    maximal number of pairs per leaf and separators per internal node
    (default 4). *)
val create : ?bugs:bug list -> ?order:int -> Bnode.store -> Vyrd.Instrument.ctx -> t

val insert : t -> int -> int -> unit
val delete : t -> int -> bool
val lookup : t -> int -> int option

(** One compression step: merges one underfull leaf into its right sibling,
    or unlinks one dead child from its parent, or does nothing — in every
    case a single internal execution with one commit action. *)
val compress : t -> unit

(** [viewdef] — the bag of (key, (value, version)) pairs on the live leaf
    chain: the nodes reachable from the leftmost leaf along right links,
    walked from the logged root pointer at every commit.  A node that does
    not decode contributes nothing and ends the chain; a spine that cannot
    reach a leaf (an internal node without children, or one whose first
    child was already passed) yields an empty view.  The independent oracle
    for {!viewdef_keyed}. *)
val viewdef : Vyrd.View.t

(** The same view, incremental (§6.4): it keeps a decoded copy of every
    node and the set of nodes on the chain, decodes only the nodes a commit
    wrote, and reports the pairs they gained or lost.  It walks the chain
    again, over the decoded copies, only when the chain's start moves or a
    chain node's right link changes other than by a split. *)
val viewdef_keyed : Vyrd.View.t

(** The ordered-map specification.  It is keyed ({!Vyrd.Spec.keyed}): an
    [insert] or [delete] touches its key, [compress] touches nothing. *)
val spec : Vyrd.Spec.t

(** Pairs currently reachable, straight from memory (post-run assertions). *)
val unsafe_contents : t -> (int * int) list

(** Tree height (root level + 1), for structural tests. *)
val unsafe_height : t -> int

(** Seeded mutant ({!Vyrd_faults.Faults}): when armed, the leaf split
    commits the halved leaf before the new sibling node is written, so the
    moved pairs (and the chain beyond them) momentarily vanish — a torn
    split that view refinement reports at the split's own commit. *)
val fault_torn_split : Vyrd_faults.Faults.t
