// Package nodeterm_exempt is a fixture playing an exempt package
// (no tier): nothing here is a finding.
package nodeterm_exempt

import (
	"os"
	"time"
)

func free() time.Time {
	go func() {}()
	_ = os.Getenv("HOME")
	return time.Now()
}
