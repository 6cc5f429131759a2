module dfi

go 1.23
