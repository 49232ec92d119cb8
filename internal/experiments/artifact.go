package experiments

import (
	"encoding/json"
	"os"
)

// WriteJSON writes rows to path as an indented JSON array followed by a
// newline — the one artifact format of the sweep CLIs (mpcbench,
// boundcheck, chaos -json), which CI uploads. No rows is [], not null.
func WriteJSON[T any](path string, rows []T) error {
	if rows == nil {
		rows = []T{}
	}
	buf, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
