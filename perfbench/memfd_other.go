//go:build !linux

package main

import (
	"errors"
	"os"
)

func memFile(string) (*os.File, error) {
	return nil, errors.New("replica logs need memfd_create, which only Linux has")
}

func memPath(*os.File) string { return "" }
