#include "pfs/namespace.h"

#include <gtest/gtest.h>

#include <string>

namespace tio::pfs {
namespace {

TEST(Namespace, RootExistsAndIsEmpty) {
  Namespace ns;
  EXPECT_TRUE(ns.exists("/"));
  auto entries = ns.readdir("/");
  ASSERT_TRUE(entries.ok());
  EXPECT_TRUE(entries->empty());
}

TEST(Namespace, MkdirAndLookup) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdir("/a").ok());
  ASSERT_TRUE(ns.mkdir("/a/b").ok());
  auto e = ns.lookup("/a/b");
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(e->is_dir);
}

TEST(Namespace, MkdirMissingParentFails) {
  Namespace ns;
  EXPECT_EQ(ns.mkdir("/a/b").code(), Errc::not_found);
}

TEST(Namespace, MkdirExistingFails) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdir("/a").ok());
  EXPECT_EQ(ns.mkdir("/a").code(), Errc::exists);
}

TEST(Namespace, MkdirAllCreatesChain) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdir_all("/x/y/z").ok());
  EXPECT_TRUE(ns.exists("/x/y/z"));
  // Idempotent.
  ASSERT_TRUE(ns.mkdir_all("/x/y/z").ok());
}

TEST(Namespace, MkdirAllThroughFileFails) {
  Namespace ns;
  ASSERT_TRUE(ns.create_file("/f", true).ok());
  EXPECT_EQ(ns.mkdir_all("/f/sub").code(), Errc::not_a_directory);
}

// The error vocabulary the metadata path surfaces to PLFS: codes and
// messages for a missing component, a file mid-path, the root's parent and
// "." components.
TEST(Namespace, ErrorCodesAndMessages) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdir("/a").ok());
  ASSERT_TRUE(ns.create_file("/a/f", true).ok());

  const Status missing = ns.create_file("/a/nope/x", true).status();
  EXPECT_EQ(missing.code(), Errc::not_found);
  EXPECT_EQ(missing.message(), "missing path component: nope");

  // The file is the leaf's parent: the whole path is named.
  const Status leaf_under_file = ns.mkdir("/a/f/x");
  EXPECT_EQ(leaf_under_file.code(), Errc::not_a_directory);
  EXPECT_EQ(leaf_under_file.message(), "/a/f/x");
  // The file is deeper in the chain: the component looked up in it is named.
  const Status through_file = ns.unlink("/a/f/x/y").status();
  EXPECT_EQ(through_file.code(), Errc::not_a_directory);
  EXPECT_EQ(through_file.message(), "x");

  for (const char* root : {"/", "", "//", "/./"}) {
    const Status st = ns.mkdir(root);
    EXPECT_EQ(st.code(), Errc::invalid) << root;
    EXPECT_EQ(st.message(), std::string("root has no parent: ") + root);
  }

  // "." components are skipped, like empty ones.
  ASSERT_TRUE(ns.create_file("/./a/./g", true).ok());
  EXPECT_TRUE(ns.exists("/a/g"));
  auto dot_dir = ns.lookup("/a/.");
  ASSERT_TRUE(dot_dir.ok());
  EXPECT_TRUE(dot_dir->is_dir);
  EXPECT_EQ(ns.create_file("/a//g", true).status().code(), Errc::exists);
  EXPECT_EQ(ns.lookup("/a/missing").status().message(), "/a/missing");
}

TEST(Namespace, MkdirAllNamesTheFilePrefix) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdir_all("/x/y").ok());
  ASSERT_TRUE(ns.create_file("/x/y/f", true).ok());
  const Status st = ns.mkdir_all("/x/y/f/z/w");
  EXPECT_EQ(st.code(), Errc::not_a_directory);
  EXPECT_EQ(st.message(), "/x/y/f");
  EXPECT_FALSE(ns.exists("/x/y/f/z"));
  EXPECT_EQ(ns.mkdir_all("/x/y/f").message(), "/x/y/f");
  ASSERT_TRUE(ns.mkdir_all("/x/new/deeper").ok());
  EXPECT_TRUE(ns.lookup("/x/new/deeper")->is_dir);
  EXPECT_TRUE(ns.mkdir_all("/").ok());
}

TEST(Namespace, CreateFileAllocatesDistinctObjectIds) {
  Namespace ns;
  auto a = ns.create_file("/a", true);
  auto b = ns.create_file("/b", true);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->created);
  EXPECT_NE(a->oid, b->oid);
  EXPECT_NE(a->oid, kNoObject);
}

TEST(Namespace, CreateExistingExclFails) {
  Namespace ns;
  ASSERT_TRUE(ns.create_file("/a", true).ok());
  EXPECT_EQ(ns.create_file("/a", true).status().code(), Errc::exists);
}

TEST(Namespace, CreateExistingNonExclReturnsSameOid) {
  Namespace ns;
  auto first = ns.create_file("/a", false);
  auto again = ns.create_file("/a", false);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->created);
  EXPECT_EQ(again->oid, first->oid);
}

TEST(Namespace, CreateOverDirectoryFails) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdir("/d").ok());
  EXPECT_EQ(ns.create_file("/d", false).status().code(), Errc::is_a_directory);
}

TEST(Namespace, LookupMissingIsNotFound) {
  Namespace ns;
  EXPECT_EQ(ns.lookup("/nope").status().code(), Errc::not_found);
  EXPECT_EQ(ns.lookup("/a/b/c").status().code(), Errc::not_found);
}

TEST(Namespace, LookupThroughFileIsNotFound) {
  Namespace ns;
  ASSERT_TRUE(ns.create_file("/f", true).ok());
  EXPECT_FALSE(ns.lookup("/f/x").ok());
}

TEST(Namespace, RmdirSemantics) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdir("/d").ok());
  ASSERT_TRUE(ns.mkdir("/d/sub").ok());
  EXPECT_EQ(ns.rmdir("/d").code(), Errc::not_empty);
  ASSERT_TRUE(ns.rmdir("/d/sub").ok());
  ASSERT_TRUE(ns.rmdir("/d").ok());
  EXPECT_EQ(ns.rmdir("/d").code(), Errc::not_found);
  ASSERT_TRUE(ns.create_file("/f", true).ok());
  EXPECT_EQ(ns.rmdir("/f").code(), Errc::not_a_directory);
}

TEST(Namespace, UnlinkSemantics) {
  Namespace ns;
  auto created = ns.create_file("/f", true);
  auto removed = ns.unlink("/f");
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(removed.value(), created->oid);
  EXPECT_EQ(ns.unlink("/f").status().code(), Errc::not_found);
  ASSERT_TRUE(ns.mkdir("/d").ok());
  EXPECT_EQ(ns.unlink("/d").status().code(), Errc::is_a_directory);
}

TEST(Namespace, ReaddirListsSortedEntries) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdir("/d").ok());
  ASSERT_TRUE(ns.create_file("/d/b", true).ok());
  ASSERT_TRUE(ns.create_file("/d/a", true).ok());
  ASSERT_TRUE(ns.mkdir("/d/c").ok());
  auto entries = ns.readdir("/d");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 3u);
  EXPECT_EQ((*entries)[0], (DirEntry{"a", false}));
  EXPECT_EQ((*entries)[1], (DirEntry{"b", false}));
  EXPECT_EQ((*entries)[2], (DirEntry{"c", true}));
}

TEST(Namespace, ReaddirOnFileFails) {
  Namespace ns;
  ASSERT_TRUE(ns.create_file("/f", true).ok());
  EXPECT_EQ(ns.readdir("/f").status().code(), Errc::not_a_directory);
}

TEST(Namespace, DirEntryCount) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdir("/d").ok());
  EXPECT_EQ(ns.dir_entry_count("/d"), 0u);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ns.create_file("/d/f" + std::to_string(i), true).ok());
  }
  EXPECT_EQ(ns.dir_entry_count("/d"), 5u);
  EXPECT_EQ(ns.dir_entry_count("/missing"), 0u);
}

TEST(Namespace, RenameFile) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdir("/a").ok());
  ASSERT_TRUE(ns.mkdir("/b").ok());
  auto created = ns.create_file("/a/f", true);
  ASSERT_TRUE(ns.rename("/a/f", "/b/g").ok());
  EXPECT_FALSE(ns.exists("/a/f"));
  auto e = ns.lookup("/b/g");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->oid, created->oid);
}

TEST(Namespace, RenameReplacesExistingFile) {
  Namespace ns;
  ASSERT_TRUE(ns.create_file("/f1", true).ok());
  auto f2 = ns.create_file("/f2", true);
  ASSERT_TRUE(ns.rename("/f2", "/f1").ok());
  EXPECT_EQ(ns.lookup("/f1")->oid, f2->oid);
  EXPECT_FALSE(ns.exists("/f2"));
}

TEST(Namespace, RenameDirOverNonEmptyDirFails) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdir("/a").ok());
  ASSERT_TRUE(ns.mkdir("/b").ok());
  ASSERT_TRUE(ns.create_file("/b/x", true).ok());
  EXPECT_EQ(ns.rename("/a", "/b").code(), Errc::not_empty);
}

TEST(Namespace, RenameTypeMismatchFails) {
  Namespace ns;
  ASSERT_TRUE(ns.mkdir("/d").ok());
  ASSERT_TRUE(ns.create_file("/f", true).ok());
  EXPECT_EQ(ns.rename("/f", "/d").code(), Errc::is_a_directory);
  EXPECT_EQ(ns.rename("/d", "/f").code(), Errc::not_a_directory);
}

TEST(Namespace, DeepTreeStress) {
  Namespace ns;
  std::string path;
  for (int i = 0; i < 50; ++i) {
    path += "/d" + std::to_string(i);
    ASSERT_TRUE(ns.mkdir(path).ok());
  }
  EXPECT_TRUE(ns.exists(path));
  ASSERT_TRUE(ns.create_file(path + "/leaf", true).ok());
  EXPECT_TRUE(ns.lookup(path + "/leaf").ok());
}

}  // namespace
}  // namespace tio::pfs
