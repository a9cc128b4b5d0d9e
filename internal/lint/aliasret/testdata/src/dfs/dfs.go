// Fixture: the shape of dfs.FS.Write, the bug aliasret found when it
// landed. Write records the slice it built in a map of receiver state
// and returns that same slice next to an error, so a caller that edits
// the result rewrites the file table.
package dfs

import "fmt"

type BlockID int

type FS struct {
	files  map[string][]BlockID
	blocks []BlockID
}

func (fs *FS) Write(name string, n int) ([]BlockID, error) {
	if _, exists := fs.files[name]; exists {
		return nil, fmt.Errorf("dfs: file %q already exists", name)
	}
	var ids []BlockID
	for i := 0; i < n; i++ {
		id := BlockID(len(fs.blocks))
		fs.blocks = append(fs.blocks, id)
		ids = append(ids, id)
	}
	fs.files[name] = ids
	return ids, nil // want "returns a reference into unexported receiver state"
}

// WriteCopy is the fixed form: the file table keeps ids, the caller
// gets a copy.
func (fs *FS) WriteCopy(name string, n int) ([]BlockID, error) {
	if _, exists := fs.files[name]; exists {
		return nil, fmt.Errorf("dfs: file %q already exists", name)
	}
	var ids []BlockID
	for i := 0; i < n; i++ {
		id := BlockID(len(fs.blocks))
		fs.blocks = append(fs.blocks, id)
		ids = append(ids, id)
	}
	fs.files[name] = ids
	return append([]BlockID(nil), ids...), nil
}
