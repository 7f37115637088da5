#include "util/text_cursor.hpp"

#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace hidap {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw HidapError(ErrorCode::IoError, "cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

}  // namespace hidap
