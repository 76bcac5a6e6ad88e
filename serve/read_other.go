//go:build !unix

package serve

import "errors"

const haveSysRead = false // no read(2): TryRead blocks as Read does

func sysRead(uintptr, []byte) (int, error) { return 0, errors.ErrUnsupported }
