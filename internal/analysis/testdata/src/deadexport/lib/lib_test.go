package deadexport

func useInTest() { TestOnly() }
