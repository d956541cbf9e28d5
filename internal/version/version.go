// Package version implements the dataset version-control tree of §4.2:
// commits, branches, checkout, diff and merge bookkeeping. Different
// versions of a dataset live in the same storage, separated by
// sub-directories holding only the chunks modified in that version; this
// package owns the branching tree and its traversal order, while the core
// package owns the per-version chunk sets.
//
// Every branch has exactly one mutable head node (an uncommitted working
// version). Commit freezes the head and creates a fresh mutable child, so
// historical versions are immutable snapshots exactly as in the paper.
package version

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// DefaultBranch is the branch created with a new dataset.
const DefaultBranch = "main"

// Node is one version in the tree.
type Node struct {
	// ID is the version identifier (also the storage sub-directory name).
	ID string `json:"id"`
	// Parent is the ID of the parent version; empty for the root.
	Parent string `json:"parent,omitempty"`
	// Branch names the branch this node belongs to.
	Branch string `json:"branch"`
	// Message is the commit message (set when committed).
	Message string `json:"message,omitempty"`
	// CreatedAt is when the node was created.
	CreatedAt time.Time `json:"created_at"`
	// CommittedAt is when the node was frozen; zero while mutable.
	CommittedAt time.Time `json:"committed_at,omitempty"`
	// Committed marks an immutable snapshot. Exactly one uncommitted
	// node exists per branch: its head.
	Committed bool `json:"committed"`
}

// Tree is the branching version-control tree stored at the dataset root.
type Tree struct {
	// Nodes maps version ID to node.
	Nodes map[string]*Node `json:"nodes"`
	// Heads maps branch name to its mutable head node ID.
	Heads map[string]string `json:"heads"`
	// Counter feeds deterministic version IDs.
	Counter uint64 `json:"counter"`
}

// NewTree creates a tree with a single mutable head on the default branch.
func NewTree(now time.Time) *Tree {
	t := &Tree{Nodes: map[string]*Node{}, Heads: map[string]string{}}
	head := t.newNode("", DefaultBranch, now)
	t.Heads[DefaultBranch] = head.ID
	return t
}

func (t *Tree) newNode(parent, branch string, now time.Time) *Node {
	t.Counter++
	n := &Node{
		ID:        fmt.Sprintf("v%08d", t.Counter),
		Parent:    parent,
		Branch:    branch,
		CreatedAt: now,
	}
	t.Nodes[n.ID] = n
	return n
}

// Head returns the mutable head node of a branch.
func (t *Tree) Head(branch string) (*Node, error) {
	id, ok := t.Heads[branch]
	if !ok {
		return nil, fmt.Errorf("version: unknown branch %q", branch)
	}
	n, ok := t.Nodes[id]
	if !ok {
		return nil, fmt.Errorf("version: dangling head %q for branch %q", id, branch)
	}
	return n, nil
}

// Resolve maps a ref — branch name or version ID — to a node.
func (t *Tree) Resolve(ref string) (*Node, error) {
	if id, ok := t.Heads[ref]; ok {
		return t.Nodes[id], nil
	}
	if n, ok := t.Nodes[ref]; ok {
		return n, nil
	}
	return nil, fmt.Errorf("version: unknown ref %q", ref)
}

// Branches lists branch names in sorted order.
func (t *Tree) Branches() []string {
	out := make([]string, 0, len(t.Heads))
	for b := range t.Heads {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// Commit freezes the head of branch with a message and creates a fresh
// mutable head whose parent is the frozen node. It returns the frozen
// (commit) node and the new head.
func (t *Tree) Commit(branch, message string, now time.Time) (committed, newHead *Node, err error) {
	head, err := t.Head(branch)
	if err != nil {
		return nil, nil, err
	}
	head.Committed = true
	head.Message = message
	head.CommittedAt = now
	child := t.newNode(head.ID, branch, now)
	t.Heads[branch] = child.ID
	return head, child, nil
}

// CreateBranch forks a new branch whose mutable head descends from the
// given node (typically another branch's last commit or its head).
func (t *Tree) CreateBranch(name, fromRef string, now time.Time) (*Node, error) {
	if _, exists := t.Heads[name]; exists {
		return nil, fmt.Errorf("version: branch %q already exists", name)
	}
	if name == "" {
		return nil, fmt.Errorf("version: empty branch name")
	}
	from, err := t.Resolve(fromRef)
	if err != nil {
		return nil, err
	}
	// Branching from a mutable head forks from its last committed parent
	// so the two branches cannot share a mutable version.
	base := from
	if !base.Committed {
		if base.Parent == "" {
			// Root head with no commits yet: freeze it implicitly is
			// not allowed; fork from the same empty lineage instead.
			head := t.newNode("", name, now)
			t.Heads[name] = head.ID
			return head, nil
		}
		base = t.Nodes[base.Parent]
	}
	head := t.newNode(base.ID, name, now)
	t.Heads[name] = head.ID
	return head, nil
}

// Ancestry returns the chain [id, parent, ..., root]. This is the traversal
// order for chunk resolution (§4.2: "the version control tree is traversed
// starting from the current commit, heading towards the first commit").
func (t *Tree) Ancestry(id string) ([]string, error) {
	var out []string
	seen := map[string]bool{}
	for id != "" {
		if seen[id] {
			return nil, fmt.Errorf("version: cycle at %q", id)
		}
		seen[id] = true
		n, ok := t.Nodes[id]
		if !ok {
			return nil, fmt.Errorf("version: unknown node %q", id)
		}
		out = append(out, id)
		id = n.Parent
	}
	return out, nil
}

// CommonAncestor returns the lowest common ancestor of two refs, the merge
// base.
func (t *Tree) CommonAncestor(a, b string) (string, error) {
	an, err := t.Resolve(a)
	if err != nil {
		return "", err
	}
	bn, err := t.Resolve(b)
	if err != nil {
		return "", err
	}
	aAnc, err := t.Ancestry(an.ID)
	if err != nil {
		return "", err
	}
	inA := map[string]bool{}
	for _, id := range aAnc {
		inA[id] = true
	}
	bAnc, err := t.Ancestry(bn.ID)
	if err != nil {
		return "", err
	}
	for _, id := range bAnc {
		if inA[id] {
			return id, nil
		}
	}
	return "", fmt.Errorf("version: no common ancestor of %q and %q", a, b)
}

// Log returns the committed ancestors of ref, newest first.
func (t *Tree) Log(ref string) ([]*Node, error) {
	n, err := t.Resolve(ref)
	if err != nil {
		return nil, err
	}
	anc, err := t.Ancestry(n.ID)
	if err != nil {
		return nil, err
	}
	var out []*Node
	for _, id := range anc {
		if node := t.Nodes[id]; node.Committed {
			out = append(out, node)
		}
	}
	return out, nil
}

// Clone returns a deep copy, so a caller can apply Commit or CreateBranch to
// the copy and adopt it only once the result is durable.
func (t *Tree) Clone() *Tree {
	c := &Tree{Nodes: make(map[string]*Node, len(t.Nodes)), Heads: make(map[string]string, len(t.Heads)), Counter: t.Counter}
	for id, n := range t.Nodes {
		cp := *n
		c.Nodes[id] = &cp
	}
	for branch, id := range t.Heads {
		c.Heads[branch] = id
	}
	return c
}

// Marshal serializes the tree as JSON.
func (t *Tree) Marshal() ([]byte, error) { return json.MarshalIndent(t, "", "  ") }

// Unmarshal restores a serialized tree.
func Unmarshal(data []byte) (*Tree, error) {
	var t Tree
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, err
	}
	if t.Nodes == nil || t.Heads == nil {
		return nil, fmt.Errorf("version: malformed tree")
	}
	for branch, id := range t.Heads {
		n, ok := t.Nodes[id]
		if !ok {
			return nil, fmt.Errorf("version: head %q of branch %q missing", id, branch)
		}
		if n.Committed {
			return nil, fmt.Errorf("version: head %q of branch %q is committed", id, branch)
		}
	}
	return &t, nil
}
