/// Computes the paper's tables and figures (bench/reproduction.h) and writes
/// them, with each claim and its verdict, as markdown to the one path it
/// takes. The repository keeps that file as docs/REPRODUCTION.md, and
/// paper_shape_test fails when it differs from what the code computes:
///
///   build/bench/reproduce docs/REPRODUCTION.md
///
/// Prints Figs. 11 and 12's running time per day and mode, which the report
/// leaves out. A failed write prints the path and the reason and exits 1.

#include <iostream>
#include <string>

#include "bench/reproduction.h"
#include "src/util/file_util.h"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: reproduce <path>\n";
    return 2;
  }
  const std::string path = argv[1];
  const triclust::reproduction::Reproduction reproduction =
      triclust::reproduction::Reproduce();
  std::cout << reproduction.timings;
  const std::string report = triclust::reproduction::Render(reproduction);
  const triclust::Status written =
      triclust::AtomicWriteFile(path, [&](std::ostream* out) {
        *out << report;
        return triclust::Status::OK();
      });
  if (!written.ok()) {
    std::cerr << "error: " << written.ToString() << "\n";
    return 1;
  }
  std::cout << "\nwrote " << path << "\n";
  return 0;
}
