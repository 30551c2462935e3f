package rtree

import "fmt"

// Restore rebuilds a sealed tree handle over nodes already present in
// store — the checkpoint loader's constructor. The caller is
// responsible for the nodes forming a valid tree rooted at root with
// the given height and entry count (the checkpoint format guarantees
// it: nodes are written by Walk and re-inserted id-for-id). cfg is
// normalized exactly as New does, so a restored tree mutates under the
// same split/capacity rules as a freshly built one.
func Restore(store NodeStore, cfg Config, root NodeID, height, size int) (*Tree, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if height < 1 {
		return nil, fmt.Errorf("rtree: restore with height %d", height)
	}
	if size < 0 {
		return nil, fmt.Errorf("rtree: restore with size %d", size)
	}
	if _, err := store.Get(root); err != nil {
		return nil, fmt.Errorf("rtree: restore root: %w", err)
	}
	attachStore(store, cfg)
	return &Tree{store: store, cfg: cfg, root: root, height: height, size: size}, nil
}
