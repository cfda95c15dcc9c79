#include "pfs/namespace.h"

#include "common/strutil.h"

namespace tio::pfs {

const Namespace::Node* Namespace::find(std::string_view path) const {
  const Node* cur = root_.get();
  std::string_view comp;
  for (PathCursor cursor(path); cursor.next(&comp);) {
    if (!cur->is_dir) return nullptr;
    const auto it = cur->children.find(comp);
    if (it == cur->children.end()) return nullptr;
    cur = it->second.get();
  }
  return cur;
}

Namespace::Node* Namespace::find(std::string_view path) {
  return const_cast<Node*>(std::as_const(*this).find(path));
}

Result<Namespace::Node*> Namespace::parent_of(std::string_view path, std::string_view* leaf) {
  // One component of lookahead: `comp` is descended into only once another
  // component follows it, so the last one is left over as the leaf.
  PathCursor cursor(path);
  std::string_view comp;
  if (!cursor.next(&comp)) {
    return error(Errc::invalid, "root has no parent: " + std::string(path));
  }
  Node* cur = root_.get();
  for (std::string_view ahead; cursor.next(&ahead); comp = ahead) {
    if (!cur->is_dir) return error(Errc::not_a_directory, std::string(comp));
    const auto it = cur->children.find(comp);
    if (it == cur->children.end()) {
      return error(Errc::not_found, "missing path component: " + std::string(comp));
    }
    cur = it->second.get();
  }
  if (!cur->is_dir) return error(Errc::not_a_directory, std::string(path));
  *leaf = comp;
  return cur;
}

Result<Namespace::CreateResult> Namespace::create_file(std::string_view path, bool excl) {
  std::string_view leaf;
  TIO_ASSIGN_OR_RETURN(Node * parent, parent_of(path, &leaf));
  const auto it = parent->children.find(leaf);
  if (it != parent->children.end()) {
    if (it->second->is_dir) return error(Errc::is_a_directory, std::string(path));
    if (excl) return error(Errc::exists, std::string(path));
    return CreateResult{it->second->oid, false};
  }
  auto node = std::make_unique<Node>();
  node->is_dir = false;
  node->oid = next_oid_++;
  const ObjectId oid = node->oid;
  parent->children.emplace(std::string(leaf), std::move(node));
  return CreateResult{oid, true};
}

Result<Namespace::Entry> Namespace::lookup(std::string_view path) const {
  const auto entry = probe(path);
  if (!entry) return error(Errc::not_found, std::string(path));
  return *entry;
}

std::optional<Namespace::Entry> Namespace::probe(std::string_view path) const {
  const Node* n = find(path);
  if (n == nullptr) return std::nullopt;
  return Entry{n->is_dir, n->oid};
}

Status Namespace::mkdir(std::string_view path) {
  std::string_view leaf;
  TIO_ASSIGN_OR_RETURN(Node * parent, parent_of(path, &leaf));
  if (parent->children.contains(leaf)) return error(Errc::exists, std::string(path));
  auto node = std::make_unique<Node>();
  node->is_dir = true;
  parent->children.emplace(std::string(leaf), std::move(node));
  return Status::Ok();
}

Status Namespace::mkdir_all(std::string_view path) {
  Node* cur = root_.get();
  std::string_view comp;
  for (PathCursor cursor(path); cursor.next(&comp);) {
    auto it = cur->children.find(comp);
    if (it == cur->children.end()) {
      auto node = std::make_unique<Node>();
      node->is_dir = true;
      it = cur->children.emplace(std::string(comp), std::move(node)).first;
    } else if (!it->second->is_dir) {
      // The prefix of `path` that names the file.
      return error(Errc::not_a_directory,
                   std::string(path.substr(0, comp.data() + comp.size() - path.data())));
    }
    cur = it->second.get();
  }
  return Status::Ok();
}

Status Namespace::rmdir(std::string_view path) {
  std::string_view leaf;
  TIO_ASSIGN_OR_RETURN(Node * parent, parent_of(path, &leaf));
  const auto it = parent->children.find(leaf);
  if (it == parent->children.end()) return error(Errc::not_found, std::string(path));
  if (!it->second->is_dir) return error(Errc::not_a_directory, std::string(path));
  if (!it->second->children.empty()) return error(Errc::not_empty, std::string(path));
  parent->children.erase(it);
  return Status::Ok();
}

Result<ObjectId> Namespace::unlink(std::string_view path) {
  std::string_view leaf;
  TIO_ASSIGN_OR_RETURN(Node * parent, parent_of(path, &leaf));
  const auto it = parent->children.find(leaf);
  if (it == parent->children.end()) return error(Errc::not_found, std::string(path));
  if (it->second->is_dir) return error(Errc::is_a_directory, std::string(path));
  const ObjectId oid = it->second->oid;
  parent->children.erase(it);
  return oid;
}

Result<std::vector<DirEntry>> Namespace::readdir(std::string_view path) const {
  const Node* n = find(path);
  if (n == nullptr) return error(Errc::not_found, std::string(path));
  if (!n->is_dir) return error(Errc::not_a_directory, std::string(path));
  std::vector<DirEntry> out;
  out.reserve(n->children.size());
  for (const auto& [name, child] : n->children) {
    out.push_back(DirEntry{name, child->is_dir});
  }
  return out;
}

std::uint64_t Namespace::dir_entry_count(std::string_view path) const {
  const Node* n = find(path);
  if (n == nullptr || !n->is_dir) return 0;
  return n->children.size();
}

bool Namespace::exists(std::string_view path) const { return find(path) != nullptr; }

Status Namespace::rename(std::string_view from, std::string_view to) {
  std::string_view from_leaf;
  TIO_ASSIGN_OR_RETURN(Node * from_parent, parent_of(from, &from_leaf));
  const auto it = from_parent->children.find(from_leaf);
  if (it == from_parent->children.end()) return error(Errc::not_found, std::string(from));
  std::string_view to_leaf;
  TIO_ASSIGN_OR_RETURN(Node * to_parent, parent_of(to, &to_leaf));
  const auto to_it = to_parent->children.find(to_leaf);
  if (to_it != to_parent->children.end()) {
    // POSIX allows replacing an empty dir with a dir, a file with a file.
    if (to_it->second->is_dir != it->second->is_dir) {
      return error(to_it->second->is_dir ? Errc::is_a_directory : Errc::not_a_directory,
                   std::string(to));
    }
    if (to_it->second->is_dir && !to_it->second->children.empty()) {
      return error(Errc::not_empty, std::string(to));
    }
    to_parent->children.erase(to_it);
  }
  auto node = std::move(it->second);
  from_parent->children.erase(it);
  to_parent->children.emplace(std::string(to_leaf), std::move(node));
  return Status::Ok();
}

}  // namespace tio::pfs
