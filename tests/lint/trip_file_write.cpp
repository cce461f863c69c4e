// aa_lint self-test fixture: must trip EXACTLY the `file-write` rule.
// Direct stream writes can be torn by a SIGKILL; artifacts must go
// through write_file_atomic.
#include <fstream>
#include <string>

namespace fixture {

void dump(const std::string& path, const std::string& body) {
  std::ofstream out(path);  // the finding: non-atomic artifact write
  out << body;
}

}  // namespace fixture
