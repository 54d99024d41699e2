// File namespace: path -> file metadata -> blocks.
//
// MiniDFS only needs the parts of the HDFS namespace DYRS interacts with:
// creating files (which allocates blocks) and resolving file names to block
// lists when a client asks for its inputs to be migrated.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "dfs/types.h"

namespace dyrs::dfs {

class Namespace {
 public:
  explicit Namespace(Bytes block_size = kDefaultBlockSize);

  /// Creates a file of `size` bytes split into blocks. The final block may
  /// be short. Throws CheckError if the name already exists or size <= 0.
  const FileMeta& create_file(const std::string& name, Bytes size);

  bool exists(const std::string& name) const { return by_name_.count(name) > 0; }

  /// Removes a file from the namespace. Its BlockIds remain allocated
  /// (ids are never reused) but resolve as deleted. Returns the file's
  /// blocks so storage layers can drop replicas. Throws for unknown names.
  std::vector<BlockId> delete_file(const std::string& name);

  bool deleted(FileId id) const;
  bool block_deleted(BlockId id) const;

  /// Throws CheckError for unknown names/ids — callers resolve existence
  /// with exists() first; an unknown id is a logic error.
  const FileMeta& file(const std::string& name) const;
  const FileMeta& file(FileId id) const;
  const BlockMeta& block(BlockId id) const;

  std::size_t file_count() const { return files_.size(); }
  std::size_t block_count() const { return blocks_.size(); }
  Bytes block_size() const { return block_size_; }

  /// Flattens a list of file names into their blocks, in file order — the
  /// engine resolves a job's input with it once, at submission.
  std::vector<BlockId> blocks_of(const std::vector<std::string>& names) const;

 private:
  Bytes block_size_;
  std::vector<FileMeta> files_;
  std::vector<BlockMeta> blocks_;
  std::unordered_map<std::string, FileId> by_name_;
  std::vector<bool> file_deleted_;  // parallel to files_
};

}  // namespace dyrs::dfs
