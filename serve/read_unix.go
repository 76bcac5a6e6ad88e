//go:build unix

package serve

import "syscall"

const haveSysRead = true // TryRead reads the non-blocking socket itself

func sysRead(fd uintptr, b []byte) (int, error) { return syscall.Read(int(fd), b) }
