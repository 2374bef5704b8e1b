type t = {
  node : int;
  children : int array;
  leaf_count : int;
  post : int;
  parent : int;
}

let of_tree_node (n : Nested.Tree.node) =
  {
    node = n.Nested.Tree.id;
    children = n.Nested.Tree.children;
    leaf_count = Array.length n.Nested.Tree.leaves;
    post = n.Nested.Tree.post;
    parent = n.Nested.Tree.parent;
  }

let compare a b = Int.compare a.node b.node

let is_descendant ~anc ~desc = anc.node < desc.node && desc.post < anc.post

let encode_aux w t =
  Storage.Codec.write_varint w t.leaf_count;
  Storage.Codec.write_varint w t.post;
  (* parents precede their children in pre-order, so node - parent ≥ 1;
     roots (parent = -1) encode as gap 0 *)
  Storage.Codec.write_varint w (if t.parent < 0 then 0 else t.node - t.parent);
  Storage.Codec.write_int_array w t.children

let encode w t ~prev_node =
  Storage.Codec.write_varint w (t.node - prev_node - 1);
  encode_aux w t

let decode_aux r ~node =
  let leaf_count = Storage.Codec.read_varint r in
  let post = Storage.Codec.read_varint r in
  let parent_gap = Storage.Codec.read_varint r in
  let parent = if parent_gap = 0 then -1 else node - parent_gap in
  let children = Storage.Codec.read_int_array r in
  { node; children; leaf_count; post; parent }

let skip_aux r =
  ignore (Storage.Codec.read_varint r);
  ignore (Storage.Codec.read_varint r);
  ignore (Storage.Codec.read_varint r);
  Storage.Codec.skip_int_array r

let decode r ~prev_node =
  let node = prev_node + 1 + Storage.Codec.read_varint r in
  decode_aux r ~node

let pp ppf t =
  Format.fprintf ppf "(%d, {%s})" t.node
    (String.concat ", " (List.map string_of_int (Array.to_list t.children)))
