from perfbench import run

run.import_program()
