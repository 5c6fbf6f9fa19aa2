import program

program.load()
