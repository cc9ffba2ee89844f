#pragma once

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

namespace mocos::test {

/// A file under testing::TempDir() with a unique name, removed when the
/// object goes out of scope. The name is `<stem>.XXXXXX` with the six
/// characters chosen by mkstemp, so concurrent test processes never share a
/// file. The file exists from construction, holding `contents`.
class TemporaryFile {
 public:
  explicit TemporaryFile(const std::string& stem,
                         const std::string& contents = "") {
    std::string name = ::testing::TempDir() + "/" + stem + ".XXXXXX";
    const int fd = ::mkstemp(name.data());
    if (fd < 0)
      throw std::runtime_error("TemporaryFile: cannot create " + name);
    ::close(fd);
    path_ = std::move(name);
    std::ofstream(path_) << contents;
  }
  ~TemporaryFile() { std::remove(path_.c_str()); }

  TemporaryFile(const TemporaryFile&) = delete;
  TemporaryFile& operator=(const TemporaryFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace mocos::test
