package main

import "fixture/a"

func main() { a.Used() }
