// Package bst implements the paper's fourth dictionary structure (§4.2):
// a binary search tree in which "each cell in the tree has a left and
// right auxiliary node between itself and its subtrees (these auxiliary
// nodes are present even if the subtree is empty)".
//
// # Structure
//
// Every edge of the tree passes through an auxiliary node: a cell's Item
// carries two immutable pointers, Left and Right, to the cell's own
// auxiliary nodes, and each auxiliary node's next pointer holds the
// subtree below it — either a cell, the shared "empty" sentinel, or
// (transiently) another auxiliary node. A single anchor auxiliary node is
// the root edge. Searching descends by key comparison exactly like a
// sequential tree, skipping over chains of auxiliary nodes left behind by
// completed deletions.
//
// # Insertion (§4.2)
//
// "Since the insertion of new cells occurs only at the leaves of the tree,
// adding new cells to the tree is fairly straightforward, involving simply
// swinging the pointer in the auxiliary node at the leaf." A new cell is
// allocated with both of its auxiliary nodes pointing at the empty
// sentinel, and published with one Compare&Swap from empty to the cell. A
// failed swing means the slot changed; the operation re-descends.
//
// # Deletion (§4.2, Figure 14)
//
// The paper sketches deletion and leaves its concurrent interleavings
// unspecified ("the effect of this deletion method on the performance of
// the binary search tree is unknown"). This implementation realizes the
// sketch with a per-cell deletion descriptor so the steps are attributable
// and helpable:
//
//   - Tombstone: Delete linearizes at the Compare&Swap that tombstones
//     the cell's value box (dict.Box); from then on the key reads as
//     absent and the steps below only unlink the cell.
//
//   - Claim: the unlinker allocates a descriptor recording the cell's
//     parent auxiliary node and installs it in the cell's (otherwise
//     unused) back_link with Compare&Swap. Only tombstoned cells are
//     claimed, and exactly one process per cell wins — the Delete, or an
//     Insert or Upsert of the key that met the tombstone first; losers
//     help.
//
//   - Cells with at most one child: the paper's short-circuit. Each EMPTY
//     side is swung from the empty sentinel to the parent auxiliary node,
//     "shunting" any process about to insert there back up the tree, and
//     guaranteeing the cell cannot gain a child through that side. Then
//     the parent edge is swung past the cell — to the surviving child's
//     auxiliary node, or to the empty sentinel for a leaf. A traversal
//     that follows a short-circuited edge arrives back at the same cell it
//     descended from; it detects this, helps complete the deletion, and
//     restarts from the root. Any process can help these deletions to
//     completion from the descriptor, so they are non-blocking.
//
//   - Cells with two children (Figure 14): the left subtree is moved down
//     to the in-order successor G — one Compare&Swap of G's empty left
//     edge from the sentinel to the cell's left auxiliary node — and the
//     parent edge is then swung to the cell's right auxiliary node. No
//     short-circuit is needed: a cell with two children has no empty edge
//     an insertion could attach to, and the left subtree stays reachable
//     through the deleted cell (cell persistence) until the move makes it
//     reachable through G. The move is performed only by the claiming
//     deleter (helpers verify it happened — they scan the successor path
//     for the moved auxiliary node by identity — before helping with the
//     final splice): a helper performing the move late, after the deletion
//     completed and the key was reinserted, could attach a live subtree in
//     the wrong place, and preventing that with a single-word CAS requires
//     the edge-flagging technique of later work (Ellen et al., PODC 2010),
//     which is beyond the paper. Consequently two-child deletion is the
//     one operation that is not helped from start to finish; the paper's
//     own sketch leaves this case unresolved, and §4.2's analysis
//     (experiment E6) covers Find and Insert only. An Insert or Upsert of
//     the key being deleted waits, backing off, for the claimer's splice.
//
// Deleted cells keep their key and edges intact until reclaimed (§2.2), so
// concurrent traversals that entered a spliced-out cell continue into live
// subtrees. Under the RC manager, the cell's Item.Left/Item.Right
// references are released by the manager's reclaim extractor and the
// descriptor by the back_link release, so the whole structure is reclaimed
// exactly.
package bst
